(* Flat runs: {!Storage.read_flat}/{!Storage.write_flat} are the store's
   one transfer path, and {!Storage.read_many}/{!Storage.write_many} are
   decode/encode views over it. Driving the same schedule through both
   must leave everything observable identical — logical and per-shard
   traces, Stats, the nonce counter, the file images, the decoded
   contents and, under a telemetry sink, the per-kind backend op counts —
   on every backend, under every sealing mode, with digest and full
   traces (the full one also compares the op sequences themselves). *)

open Odex_extmem
module Cipher = Odex_crypto.Cipher
module Telemetry = Odex_telemetry.Telemetry

let b = 4
let capacity = 48

(* (address, run length) pairs: single blocks, short and long runs,
   overlapping rewrites. *)
let schedule =
  [ (0, 16); (16, 16); (32, 16); (3, 1); (5, 7); (0, 2); (20, 13); (47, 1); (8, 24); (0, 48) ]

let block_for ~step ~addr i =
  Array.init b (fun j ->
      if (i + j + step) mod 5 = 4 then Cell.empty
      else
        let k = (step * 1000) + ((addr + i) * 10) + j in
        Cell.item ~tag:j ~aux:step ~key:k ~value:(k * 3) ())

type sealing = Plain | Sealed

let sealing_name = function
  | Plain -> "plaintext"
  | Sealed -> "chacha20"

type observed = {
  reads : Block.t array list;  (** Decoded contents of every read step. *)
  final : Block.t array;
  digest : int64;
  length : int;
  trace_ops : Trace.op list;  (** The recorded ops; [] unless the trace is [Full]. *)
  shards : (int64 * int) list;
  stats : int * int * int * int * int;
  nonce : int option;
  files : string list;
  ops : (string * string * int * int * int) list;
      (** Telemetry op stats (kind, backend, count, blocks, bytes). *)
}

let rec spec_files = function
  | Storage.Mem -> []
  | Storage.File { path } -> [ path ]
  | Storage.Faulty { inner; _ } | Storage.Crashing { inner; _ } -> spec_files inner
  | Storage.Journaled { inner; path; _ } -> path :: spec_files inner
  | Storage.Sharded { inner; shards; _ } ->
      List.concat
        (List.init shards (fun i ->
             List.map (fun p -> Printf.sprintf "%s.shard%d" p i) (spec_files inner)))

let run ?(telemetry = false) ?(trace_mode = Trace.Digest) ~flat ~spec ~sealing () =
  let cipher = match sealing with Plain -> None | Sealed -> Some (Cipher.key_of_int 0xF1A7) in
  let sink = if telemetry then Telemetry.create () else Telemetry.disabled in
  let s =
    Storage.create ?cipher ~telemetry:sink ~trace_mode ~backend:spec
      ~backoff:(0., 0.) ~block_size:b ()
  in
  let base = Storage.alloc s capacity in
  let buf = Flat.create ~block_size:b ~blocks:capacity in
  let reads =
    List.mapi
      (fun step (addr, n) ->
        let blks = Array.init n (block_for ~step ~addr) in
        (if flat then begin
           Array.iteri (Flat.set_block buf) blks;
           let image i =
             List.init b (fun j -> Flat.get_cell buf (Flat.cell_offset buf ~block:i ~slot:j))
           in
           let before = List.init n image in
           Storage.write_flat s (base + addr) n buf;
           Alcotest.(check bool) "write_flat leaves the caller's images alone" true
             (List.for_all2 (List.for_all2 Cell.equal) before (List.init n image))
         end
         else Storage.write_many s (base + addr) blks);
        let raddr = (addr + 3) mod capacity in
        let rn = min n (capacity - raddr) in
        if flat then begin
          Storage.read_flat s (base + raddr) rn buf;
          Array.init rn (Flat.get_block buf)
        end
        else Storage.read_many s (base + raddr) rn)
      schedule
  in
  let final = Array.init capacity (fun i -> Storage.unchecked_peek s (base + i)) in
  let st = Storage.stats s and tr = Storage.trace s in
  let observed =
    {
      reads;
      final;
      digest = Trace.digest tr;
      length = Trace.length tr;
      trace_ops = Trace.ops tr;
      shards =
        Array.to_list
          (Array.map (fun t -> (Trace.digest t, Trace.length t)) (Storage.shard_traces s));
      stats =
        ( Stats.reads st,
          Stats.writes st,
          Stats.retries st,
          Stats.bytes_moved st,
          Stats.batched_ios st );
      nonce = Storage.next_nonce s;
      files = [];
      ops = [];
    }
  in
  Storage.close s;
  let ops =
    List.map
      (fun (o : Telemetry.op_stat) ->
        (Telemetry.op_kind_name o.op, o.op_backend, o.count, o.op_blocks, o.op_bytes))
      (Telemetry.op_stats sink)
  in
  { observed with files = List.map Util.read_file (spec_files spec); ops }

let blocks_equal a c =
  Array.length a = Array.length c && Array.for_all2 (Array.for_all2 Cell.equal) a c

let check_parity ~make_spec ~sealing ~telemetry ~trace_mode () =
  let with_spec f =
    let spec = make_spec () in
    Fun.protect ~finally:(fun () -> Storage.remove_spec_files spec) (fun () -> f spec)
  in
  let flat = with_spec (fun spec -> run ~telemetry ~trace_mode ~flat:true ~spec ~sealing ()) in
  let many = with_spec (fun spec -> run ~telemetry ~trace_mode ~flat:false ~spec ~sealing ()) in
  Alcotest.(check int64) "logical trace digest" many.digest flat.digest;
  Alcotest.(check int) "logical trace length" many.length flat.length;
  Alcotest.(check int) "full trace keeps every op"
    (if trace_mode = Trace.Full then flat.length else 0)
    (List.length flat.trace_ops);
  Alcotest.(check bool) "logical trace ops" true (many.trace_ops = flat.trace_ops);
  Alcotest.(check (list (pair int64 int))) "per-shard traces" many.shards flat.shards;
  let r, w, rt, by, bt = flat.stats and r', w', rt', by', bt' = many.stats in
  Alcotest.(check (list int)) "stats (reads, writes, retries, bytes, batched)"
    [ r'; w'; rt'; by'; bt' ] [ r; w; rt; by; bt ];
  Alcotest.(check (option int)) "nonce counter" many.nonce flat.nonce;
  Alcotest.(check int) "file count" (List.length many.files) (List.length flat.files);
  List.iteri
    (fun i (x, y) -> Alcotest.(check bool) (Printf.sprintf "file %d image bytes" i) true (x = y))
    (List.combine many.files flat.files);
  Alcotest.(check bool) "decoded reads" true (List.for_all2 blocks_equal many.reads flat.reads);
  Alcotest.(check bool) "decoded final contents" true (blocks_equal many.final flat.final);
  (* The instrumented backend sees the same calls either way. *)
  Alcotest.(check bool) "telemetry saw the backend ops" telemetry (flat.ops <> []);
  Alcotest.(check (list (pair (pair string string) (list int))))
    "telemetry op stats (kind, backend) -> (count, blocks, bytes)"
    (List.map (fun (k, be, c, bl, by) -> ((k, be), [ c; bl; by ])) many.ops)
    (List.map (fun (k, be, c, bl, by) -> ((k, be), [ c; bl; by ])) flat.ops);
  (* The schedule's writes landed: the last full rewrite is what is
     stored. *)
  let last = List.length schedule - 1 in
  Alcotest.(check bool) "contents are the last rewrite" true
    (blocks_equal flat.final (Array.init capacity (block_for ~step:last ~addr:0)))

let temp () = Filename.temp_file "odex_flat" ".store"

let faulty =
  Storage.Faulty { inner = Storage.Mem; seed = 0xFA17; failure_rate = 0.05; max_burst = 2 }

let backends =
  [
    ("mem", fun () -> Storage.Mem);
    ("file", fun () -> Storage.File { path = temp () });
    ("sharded K=2", fun () -> Storage.Sharded { inner = Storage.Mem; shards = 2; seed = 0x5A4D });
    ( "journaled stripe",
      fun () ->
        (* Only the shard files and the journal are created: free the
           base name so cleanup leaves nothing behind. *)
        let path = temp () in
        Sys.remove path;
        Storage.Journaled
          {
            inner = Storage.Sharded { inner = Storage.File { path }; shards = 2; seed = 0x5A4D };
            path = path ^ ".journal";
            durable = true;
          } );
    ("faulty", fun () -> faulty);
  ]

(* Sealing modes, the sealed one also through a telemetry sink, whose
   {!Backend.instrument} wrapper forwards runs on its own path. *)
let legs = [ (Plain, false); (Sealed, false); (Sealed, true) ]

(* The faulty leg must actually resume mid-run, or its parity is
   vacuous. *)
let test_faulty_leg_resumes () =
  let o = run ~flat:true ~spec:faulty ~sealing:Plain () in
  let _, _, retries, _, _ = o.stats in
  Alcotest.(check bool) (Printf.sprintf "%d retries" retries) true (retries > 0)

let test_flat_rejects_bad_buffers () =
  let s = Storage.create ~block_size:b () in
  let base = Storage.alloc s 8 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "too few slots" true
    (raises (fun () -> Storage.read_flat s base 8 (Flat.create ~block_size:b ~blocks:4)));
  Alcotest.(check bool) "wrong block size" true
    (raises (fun () -> Storage.write_flat s base 2 (Flat.create ~block_size:(b + 1) ~blocks:2)));
  Alcotest.(check bool) "run past capacity" true
    (raises (fun () -> Storage.read_flat s (base + 4) 5 (Flat.create ~block_size:b ~blocks:8)));
  Alcotest.(check int) "nothing counted" 0 (Stats.total (Storage.stats s))

let test_flat_accessors () =
  let f = Flat.create ~block_size:3 ~blocks:2 in
  let stride = Flat.stride_of ~block_size:3 in
  Alcotest.(check int) "stride is the payload size" (8 + Block.encoded_size 3) stride;
  Alcotest.(check bool) "fresh buffer is empty" true
    (Array.for_all Cell.is_empty (Flat.get_block f 1));
  let c = Cell.item ~tag:2 ~aux:9 ~key:5 ~value:7 () in
  let o = Flat.cell_offset f ~block:0 ~slot:2 in
  Flat.set_cell f o c;
  let o' = Flat.cell_offset f ~block:1 ~slot:0 in
  Alcotest.(check int) "next block's first cell follows the header"
    (o + Flat.cell_bytes + Flat.header_bytes) o';
  Flat.copy_cell f o f o';
  Alcotest.(check bool) "copied image decodes" true (Cell.equal c (Flat.get_cell f o'));
  Flat.clear_cell f o;
  Alcotest.(check bool) "cleared image is Empty" true (Cell.is_empty (Flat.get_cell f o));
  Flat.copy_block f 1 f 0;
  Alcotest.(check bool) "block copy" true (Cell.equal c (Flat.get_block f 0).(0));
  Flat.clear_blocks f 0 2;
  let empty i = Array.for_all Cell.is_empty (Flat.get_block f i) in
  Alcotest.(check bool) "cleared blocks" true (empty 0 && empty 1);
  Alcotest.(check bool) "out-of-range cell rejected" true
    (try
       ignore (Flat.get_cell f (2 * stride));
       false
     with Invalid_argument _ -> true)

let suite =
  List.concat_map
    (fun (bname, make_spec) ->
      List.concat_map
        (fun (sealing, telemetry) ->
          List.map
            (fun trace_mode ->
              ( Printf.sprintf "flat = many [%s, %s%s%s]" bname (sealing_name sealing)
                  (if telemetry then ", telemetry on" else "")
                  (if trace_mode = Trace.Full then ", full trace" else ""),
                `Quick,
                check_parity ~make_spec ~sealing ~telemetry ~trace_mode ))
            [ Trace.Digest; Trace.Full ])
        legs)
    backends
  @ [
      ("faulty leg resumes mid-run", `Quick, test_faulty_leg_resumes);
      ("bad buffers rejected", `Quick, test_flat_rejects_bad_buffers);
      ("flat accessors", `Quick, test_flat_accessors);
    ]
