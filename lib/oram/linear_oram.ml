open Odex_extmem

type t = { main : Ext_array.t; n : int }

let init storage ~values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Linear_oram.init: empty";
  let cells = Array.mapi (fun i v -> Cell.item ~key:i ~value:v ()) values in
  let b = Storage.block_size storage in
  (* One virtual word per block: pad each item into its own block. *)
  let main = Ext_array.create storage ~blocks:n in
  Array.iteri
    (fun i c ->
      let blk = Block.make b in
      blk.(0) <- c;
      Storage.unchecked_poke storage (Ext_array.addr main i) blk)
    cells;
  { main; n }

(* Read and rewrite every block; mutate only the target. *)
let access t addr ~update =
  if addr < 0 || addr >= t.n then invalid_arg "Linear_oram: address out of range";
  let result = ref 0 in
  Ext_array.with_span t.main "linear-oram.scan" (fun () ->
      for i = 0 to t.n - 1 do
        let blk = Ext_array.read_block t.main i in
        (match blk.(0) with
        | Cell.Item it when it.key = addr ->
            result := it.value;
            let v = match update with None -> it.value | Some v -> v in
            blk.(0) <- Cell.Item { it with value = v }
        | _ -> ());
        Ext_array.write_block t.main i blk
      done);
  !result

let read t addr = access t addr ~update:None
let write t addr v = ignore (access t addr ~update:(Some v))
