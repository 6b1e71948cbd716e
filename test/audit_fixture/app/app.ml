module F = Audit_fixture.Fix

let () = print_int (F.used 1)
