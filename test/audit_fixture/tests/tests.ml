open Audit_fixture

let () = print_int (Fix.listed 1 + Fix.test_only 1)
