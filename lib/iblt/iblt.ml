type t = {
  fam : Odex_crypto.Hash_family.t;
  count : int array;
  key_sum : int array;
  value_sum : int array;
}

let create ?(k = 3) ~size key =
  if size < k then invalid_arg "Iblt.create: size must be >= k";
  {
    fam = Odex_crypto.Hash_family.create ~k ~size key;
    count = Array.make size 0;
    key_sum = Array.make size 0;
    value_sum = Array.make size 0;
  }

let size t = Array.length t.count

let copy t =
  {
    fam = t.fam;
    count = Array.copy t.count;
    key_sum = Array.copy t.key_sum;
    value_sum = Array.copy t.value_sum;
  }

let update t ~key ~value ~sign =
  Array.iter
    (fun cell ->
      t.count.(cell) <- t.count.(cell) + sign;
      t.key_sum.(cell) <- t.key_sum.(cell) + (sign * key);
      t.value_sum.(cell) <- t.value_sum.(cell) + (sign * value))
    (Odex_crypto.Hash_family.hashes t.fam key)

let insert t ~key ~value = update t ~key ~value ~sign:1
let delete t ~key ~value = update t ~key ~value ~sign:(-1)

(* Peeling decode with a worklist of pure cells (count = 1 and the cell
   really is one of its key's hash locations — the consistency check
   guards against ghosts produced by deletions of absent pairs). *)
let list_entries t0 =
  let t = copy t0 in
  let m = size t in
  let queue = Queue.create () in
  for c = 0 to m - 1 do
    if t.count.(c) = 1 then Queue.add c queue
  done;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    if t.count.(c) = 1 then begin
      let key = t.key_sum.(c) and value = t.value_sum.(c) in
      let cells = Odex_crypto.Hash_family.hashes t.fam key in
      if Array.exists (fun c' -> c' = c) cells then begin
        out := (key, value) :: !out;
        delete t ~key ~value;
        Array.iter (fun c' -> if t.count.(c') = 1 then Queue.add c' queue) cells
      end
    end
  done;
  let complete = Array.for_all (fun c -> c = 0) t.count in
  (List.rev !out, complete)
