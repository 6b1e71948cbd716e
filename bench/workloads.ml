(* Input generators shared by the experiments. *)

open Odex_extmem

(* Which physical store freshly created workloads land on. `--backend`
   swaps this factory; each storage gets a fresh spec so file-backed
   stores never share a path. [cleanup] removes any files the factory
   produced. *)
let default_backend : (unit -> Storage.backend_spec) ref = ref (fun () -> Storage.Mem)

(* Which telemetry sink freshly created workloads report to. The default
   factory hands out the shared disabled sink (no instrumentation at
   all); `--profile` swaps in a factory minting one live sink per
   storage. *)
let telemetry : (unit -> Odex_telemetry.Telemetry.t) ref =
  ref (fun () -> Odex_telemetry.Telemetry.disabled)

(* Sealing knobs (`--cipher`): a benchmark-wide cipher key (None =
   plaintext sealing) and the keystream engine under it. Both
   physical-only; traces stay comparable. *)
let cipher : Odex_crypto.Cipher.key option ref = ref None
let cipher_engine = ref Odex_crypto.Cipher.Prf_xor

let created_specs : Storage.backend_spec list ref = ref []

let fresh_storage ?cipher:per_store ~trace ~b () =
  let spec = !default_backend () in
  created_specs := spec :: !created_specs;
  let key = match per_store with Some _ as k -> k | None -> !cipher in
  Storage.create ?cipher:key ~cipher_engine:!cipher_engine ~telemetry:(!telemetry ())
    ~trace_mode:trace ~backend:spec ~block_size:b ()

let cleanup () =
  List.iter Storage.remove_spec_files !created_specs;
  created_specs := []

let cells_of_keys keys =
  Array.mapi (fun i k -> Cell.item ~tag:i ~key:k ~value:(k * 3) ()) keys

type shape = Uniform | Ascending | Descending | All_equal | Few_distinct

let shape_name = function
  | Uniform -> "uniform"
  | Ascending -> "ascending"
  | Descending -> "descending"
  | All_equal -> "all-equal"
  | Few_distinct -> "few-distinct"

let keys ~rng ~n = function
  | Uniform -> Array.init n (fun _ -> Odex_crypto.Rng.int rng (max 1 (4 * n)))
  | Ascending -> Array.init n (fun i -> i)
  | Descending -> Array.init n (fun i -> n - i)
  | All_equal -> Array.make n 7
  | Few_distinct -> Array.init n (fun i -> i mod 5)

(* Fresh storage + array holding [n] cells of the given shape. *)
let array ?(trace = Trace.Off) ~rng ~b ~n shape =
  let s = fresh_storage ~trace ~b () in
  let a = Ext_array.of_cells s ~block_size:b (cells_of_keys (keys ~rng ~n shape)) in
  (s, a)

(* A consolidated-style array: [occupied] of the [n] blocks hold full
   payloads, spread evenly. *)
let consolidated_blocks ?(trace = Trace.Off) ~b ~n ~occupied () =
  let s = fresh_storage ~trace ~b () in
  let a = Ext_array.create s ~blocks:n in
  let stride = max 1 (n / max 1 occupied) in
  let placed = ref 0 in
  let pos = ref 0 in
  while !placed < occupied && !pos < n do
    let seed = !placed + 1 in
    let blk = Array.init b (fun j -> Cell.item ~tag:j ~key:((seed * 100) + j) ~value:seed ()) in
    Storage.unchecked_poke s (Ext_array.addr a !pos) blk;
    incr placed;
    pos := !pos + stride
  done;
  (s, a)

let io s = Stats.total (Storage.stats s)
