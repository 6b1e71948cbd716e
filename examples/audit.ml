(* The adversary's notebook.

   Bob records every block address Alice touches. This demo shows his
   view of two algorithms solving the same problem on five very
   different datasets: the library's oblivious sort (traces identical —
   he learns nothing) and a leaky hash-placement routine in the style of
   the paper's §1 non-example (traces differ — he can distinguish the
   datasets without ever decrypting a byte).

   Run with: dune exec examples/audit.exe *)

open Odex_extmem
open Odex

let () =
  let rng = Odex_crypto.Rng.create ~seed:31337 in
  let inputs = Oblivious.input_classes ~rng ~n:600 in

  let oblivious_subject =
    {
      Oblivious.name = "Odex.Sort (Theorem 21)";
      run = (fun rng _s a -> ignore (Sort.run ~m:16 ~rng a));
    }
  in
  let leaky_subject =
    {
      Oblivious.name = "hash-placement (paper's non-example)";
      run =
        (fun _rng s a ->
          (* T[h(A[i])] accesses: the address depends on the value. *)
          let n = Ext_array.blocks a in
          let table = Ext_array.create s ~blocks:n in
          let key = Odex_crypto.Prf.key_of_int 1 in
          for i = 0 to n - 1 do
            let blk = Storage.read s (Ext_array.addr a i) in
            match Array.find_opt Cell.is_item blk with
            | Some c ->
                let j = Odex_crypto.Prf.to_range key (Cell.key_exn c) ~bound:n in
                let t = Storage.read s (Ext_array.addr table j) in
                Storage.write s (Ext_array.addr table j) t
            | None -> ()
          done);
    }
  in
  List.iter
    (fun subject ->
      let report = Oblivious.audit ~b:4 ~inputs subject in
      Format.printf "%a@." Oblivious.pp_report report)
    [ oblivious_subject; leaky_subject ];
  print_endline
    "The sort's five traces are byte-identical: Bob's view is a function of (N, M, B)\n\
     only. The hash-placement traces differ per dataset: Bob distinguishes encrypted\n\
     inputs without reading a single plaintext — the leak the paper is built to stop."
