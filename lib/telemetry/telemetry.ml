(* A timing sink for the storage stack. The design constraint is the
   disabled path: [disabled] must cost one branch per entry point and
   read no clock, because it is threaded through every Storage instance
   by default. The sink counts nothing itself: I/Os, retries, faults
   and bytes live in each registered store's ledger, and phases read
   them off it by snapshot. What the sink keeps
   is wall-clock — one histogram of 63 int buckets per (op, backend)
   cell and one record per phase — so a profiled run allocates
   O(phases), never O(ops). *)

let now_ns = Monotonic_clock.now
let clock () = Int64.to_int (Monotonic_clock.now ())

(* ---- log2-bucketed histograms ---- *)

(* Bucket [i] holds samples with [2^i <= ns < 2^(i+1)] (bucket 0 also
   takes 0 ns). 63 buckets cover every positive int the clock can
   produce. The total is an [int]: a mutable [int64] field would box on
   every sample. *)
type hist = {
  buckets : int array;
  mutable count : int;
  mutable total_ns : int;
}

let hist_create () = { buckets = Array.make 63 0; count = 0; total_ns = 0 }

let bucket_of_ns ns =
  if ns <= 1 then 0
  else
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    min 62 (log2 0 ns)

let hist_add h ns =
  let ns = max 0 ns in
  h.buckets.(bucket_of_ns ns) <- h.buckets.(bucket_of_ns ns) + 1;
  h.count <- h.count + 1;
  h.total_ns <- h.total_ns + ns

let hist_count h = h.count
let hist_total_ns h = Int64.of_int h.total_ns

(* Geometric midpoint of the bucket holding the requested rank: crude
   (a factor-sqrt(2) resolution) but monotone, allocation-free and
   plenty to see where a 2x hides. *)
let hist_percentile h p =
  if h.count = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int h.count)) in
    let rank = max 1 rank in
    let seen = ref 0 and found = ref 0 in
    (try
       for i = 0 to 62 do
         seen := !seen + h.buckets.(i);
         if !seen >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    let lo = if !found = 0 then 1. else Float.pow 2. (float_of_int !found) in
    lo *. sqrt 2.
  end

(* ---- sink ---- *)

type op_kind = Read | Write | Read_run | Write_run | Sync | Seal | Unseal

let op_kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Read_run -> "read_run"
  | Write_run -> "write_run"
  | Sync -> "sync"
  | Seal -> "seal"
  | Unseal -> "unseal"

type op_stat = {
  op : op_kind;
  op_backend : string;
  count : int;
  op_blocks : int;
  op_bytes : int;
  latency : hist;
}

type counts = { ios : int; retries : int; faults : int; bytes : int }

let zero = { ios = 0; retries = 0; faults = 0; bytes = 0 }

let lift f (a : counts) (b : counts) : counts =
  {
    ios = f a.ios b.ios;
    retries = f a.retries b.retries;
    faults = f a.faults b.faults;
    bytes = f a.bytes b.bytes;
  }

type phase = {
  label : string;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
  ios : int;
  retries : int;
  faults : int;
  bytes : int;
}

type phase_stat = { phase_label : string; phase_count : int; phase_latency : hist }

(* The live counterpart of [op_stat]: resolved once by its recorder and
   updated in place on every call, copied into the public record only
   when read. *)
type cell = {
  c_op : op_kind;
  c_backend : string;
  mutable c_count : int;
  mutable c_blocks : int;
  mutable c_bytes : int;
  c_latency : hist;
}

(* An open phase remembers the ledgers at entry and the inclusive totals
   of the children it has closed, so its own numbers are what happened
   while it was innermost. *)
type frame =
  { f_label : string; f_depth : int; f_start : int; f_entry : counts; mutable f_kids : counts }

type t = {
  on : bool;
  mutable cells : cell list;  (* one per (kind, backend): a handful, a list is fine *)
  mutable ledgers : (unit -> counts) list;
  mutable rev_phases : phase list;
  mutable stack : frame list;
}

let make on = { on; cells = []; ledgers = []; rev_phases = []; stack = [] }
let disabled = make false
let create () = make true
let enabled t = t.on
let register t ledger = if t.on then t.ledgers <- ledger :: t.ledgers
let total t = List.fold_left (fun acc l -> lift ( + ) acc (l ())) zero t.ledgers

(* A disabled sink hands out a detached cell: recording into it is
   harmless and nothing ever reads it. *)
let cell t ~backend op =
  match List.find_opt (fun c -> c.c_op = op && String.equal c.c_backend backend) t.cells with
  | Some c -> c
  | None ->
      let c =
        { c_op = op; c_backend = backend; c_count = 0; c_blocks = 0; c_bytes = 0;
          c_latency = hist_create () }
      in
      if t.on then t.cells <- c :: t.cells;
      c

let record c ~blocks ~bytes ~ns =
  c.c_count <- c.c_count + 1;
  c.c_blocks <- c.c_blocks + blocks;
  c.c_bytes <- c.c_bytes + bytes;
  hist_add c.c_latency ns

let with_phase t label f =
  if not t.on then f ()
  else begin
    let frame =
      { f_label = label; f_depth = List.length t.stack; f_start = clock (); f_entry = total t;
        f_kids = zero }
    in
    t.stack <- frame :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        let incl = lift ( - ) (total t) frame.f_entry in
        let own = lift ( - ) incl frame.f_kids in
        (match t.stack with x :: rest when x == frame -> t.stack <- rest | _ -> ());
        (match t.stack with p :: _ -> p.f_kids <- lift ( + ) p.f_kids incl | [] -> ());
        t.rev_phases <-
          {
            label = frame.f_label;
            depth = frame.f_depth;
            start_ns = Int64.of_int frame.f_start;
            dur_ns = Int64.of_int (clock () - frame.f_start);
            ios = own.ios;
            retries = own.retries;
            faults = own.faults;
            bytes = own.bytes;
          }
          :: t.rev_phases)
      f
  end

let phases t = List.rev t.rev_phases

let op_stats t =
  List.sort
    (fun a b -> compare (a.op, a.op_backend) (b.op, b.op_backend))
    (List.filter_map
       (fun c ->
         if c.c_count = 0 then None
         else
           Some
             { op = c.c_op; op_backend = c.c_backend; count = c.c_count; op_blocks = c.c_blocks;
               op_bytes = c.c_bytes; latency = c.c_latency })
       t.cells)

let phase_stats t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (p : phase) ->
      let s =
        match Hashtbl.find_opt tbl p.label with
        | Some s -> s
        | None ->
            let s = { phase_label = p.label; phase_count = 0; phase_latency = hist_create () } in
            Hashtbl.add tbl p.label s;
            s
      in
      hist_add s.phase_latency (Int64.to_int p.dur_ns);
      Hashtbl.replace tbl p.label { s with phase_count = s.phase_count + 1 })
    t.rev_phases;
  List.sort
    (fun a b -> String.compare a.phase_label b.phase_label)
    (Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])

let counters (_ : t) : (string * int) list = []

(* ---- human-readable profile ---- *)

let ms ns = Int64.to_float ns /. 1e6
let us f = f /. 1e3

let pp_summary ppf t =
  if not t.on then Format.fprintf ppf "telemetry: disabled@."
  else if op_stats t = [] && t.rev_phases = [] then
    Format.fprintf ppf "telemetry: enabled, nothing recorded@."
  else begin
    if op_stats t <> [] then begin
      Format.fprintf ppf "backend op latency (us): %-18s %8s %10s %8s %8s %8s@." "op[backend]"
        "count" "total_ms" "p50" "p90" "p99";
      List.iter
        (fun s ->
          Format.fprintf ppf "  %-38s %8d %10.3f %8.1f %8.1f %8.1f@."
            (Printf.sprintf "%s[%s] (%d blk, %d B)" (op_kind_name s.op) s.op_backend
               s.op_blocks s.op_bytes)
            s.count
            (ms (hist_total_ns s.latency))
            (us (hist_percentile s.latency 50.))
            (us (hist_percentile s.latency 90.))
            (us (hist_percentile s.latency 99.)))
        (op_stats t)
    end;
    let ps = phase_stats t in
    if ps <> [] then begin
      Format.fprintf ppf "phases (ms): %-31s %8s %10s %8s %8s %8s@." "label" "count" "total_ms"
        "p50" "p90" "p99";
      List.iter
        (fun s ->
          Format.fprintf ppf "  %-41s %8d %10.3f %8.3f %8.3f %8.3f@." s.phase_label
            s.phase_count
            (ms (hist_total_ns s.phase_latency))
            (hist_percentile s.phase_latency 50. /. 1e6)
            (hist_percentile s.phase_latency 90. /. 1e6)
            (hist_percentile s.phase_latency 99. /. 1e6))
        ps
    end
  end

(* ---- Chrome trace-event export ---- *)

(* The catapult JSON object format: {"traceEvents": [...]}. Each phase
   becomes one complete event ("ph":"X", microsecond floats); each
   (op x backend) aggregate becomes one instant event carrying its
   histogram summary in args. Labels come from span names and backend
   kinds — short ASCII identifiers — but escape anyway. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let chrome_json named =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let event s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf "    ";
    Buffer.add_string buf s
  in
  (* Rebase all timestamps to the earliest phase start across sinks. *)
  let epoch =
    List.fold_left
      (fun acc (_, t) ->
        List.fold_left
          (fun acc (p : phase) -> if Int64.compare p.start_ns acc < 0 then p.start_ns else acc)
          acc t.rev_phases)
      Int64.max_int named
  in
  let epoch = if epoch = Int64.max_int then 0L else epoch in
  let ts ns = Int64.to_float (Int64.sub ns epoch) /. 1e3 in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  List.iteri
    (fun tid (name, t) ->
      event
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
           tid (json_escape name));
      List.iter
        (fun (p : phase) ->
          event
            (Printf.sprintf
               "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"cat\":\"phase\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ios\":%d,\"retries\":%d,\"faults\":%d,\"bytes\":%d,\"depth\":%d}}"
               tid (json_escape p.label) (ts p.start_ns)
               (Int64.to_float p.dur_ns /. 1e3)
               p.ios p.retries p.faults p.bytes p.depth))
        (phases t);
      List.iter
        (fun s ->
          event
            (Printf.sprintf
               "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"s\":\"t\",\"name\":\"%s\",\"cat\":\"opstat\",\"ts\":0,\"args\":{\"backend\":\"%s\",\"count\":%d,\"blocks\":%d,\"bytes\":%d,\"total_ms\":%.3f,\"p50_us\":%.1f,\"p99_us\":%.1f}}"
               tid
               (json_escape (op_kind_name s.op))
               (json_escape s.op_backend) s.count s.op_blocks s.op_bytes
               (ms (hist_total_ns s.latency))
               (us (hist_percentile s.latency 50.))
               (us (hist_percentile s.latency 99.))))
        (op_stats t))
    named;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write_chrome ~path named =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (chrome_json named))
