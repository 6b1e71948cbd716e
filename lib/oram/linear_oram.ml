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
  let buf = Flat.create ~block_size:(Storage.block_size (Ext_array.storage t.main)) ~blocks:1 in
  let c = Flat.cell_offset buf ~block:0 ~slot:0 in
  Ext_array.with_span t.main "linear-oram.scan" (fun () ->
      for i = 0 to t.n - 1 do
        Ext_array.read_flat t.main i ~count:1 buf;
        if Flat.is_item buf c && Flat.key buf c = addr then begin
          result := Flat.value buf c;
          let value = match update with None -> !result | Some v -> v in
          Flat.set_item buf c ~key:addr ~value ~tag:(Flat.tag buf c) ~aux:(Flat.aux buf c)
        end;
        Ext_array.write_flat t.main i ~count:1 buf
      done);
  !result

let read t addr = access t addr ~update:None
let write t addr v = ignore (access t addr ~update:(Some v))
