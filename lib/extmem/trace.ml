type op = Read of int | Write of int | Retry_read of int | Retry_write of int

type mode = Off | Digest | Full

type span = {
  label : string;
  depth : int;
  start_length : int;
  start_hash : int64;
  end_length : int;
  end_hash : int64;
}

type t = {
  mode : mode;
  mutable length : int;
  hash : Bytes.t;
      (* The running digest, one unboxed 64-bit word: folding an op
         stores it in place instead of allocating a boxed [int64]. *)
  (* [Full] mode keeps the ops in a growable array (amortized O(1) push,
     no per-op cons cell): [ops_buf[0 .. ops_len)] is the sequence in
     recording order, so [ops] is a single pass instead of the O(n)
     re-reverse a cons list would need, and multi-million-op traces stop
     churning the GC. *)
  mutable ops_buf : op array;
  mutable ops_len : int;
  mutable depth : int;
  mutable rev_spans : span list;
  (* Open spans, innermost first: (label, depth, start_length,
     start_hash). The explicit stack lets a caller bracket several
     traces at once (the per-shard traces mirror the logical span
     structure) without nesting closures per trace. *)
  mutable open_spans : (string * int * int * int64) list;
}

let create mode =
  {
    mode;
    length = 0;
    hash = Bytes.make 8 '\000';
    ops_buf = [||];
    ops_len = 0;
    depth = 0;
    rev_spans = [];
    open_spans = [];
  }

let push_op t op =
  let cap = Array.length t.ops_buf in
  if t.ops_len = cap then begin
    let fresh = Array.make (max 64 (2 * cap)) op in
    Array.blit t.ops_buf 0 fresh 0 t.ops_len;
    t.ops_buf <- fresh
  end;
  t.ops_buf.(t.ops_len) <- op;
  t.ops_len <- t.ops_len + 1

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] code addr kind = Int64.of_int ((addr lsl 2) lor kind)

let[@inline] op_code = function
  | Read addr -> code addr 0
  | Write addr -> code addr 1
  | Retry_read addr -> code addr 2
  | Retry_write addr -> code addr 3

let[@inline] fold t c =
  t.length <- t.length + 1;
  set64 t.hash 0 (mix64 (Int64.add (Int64.mul (get64 t.hash 0) 0x100000001B3L) c))

let record t op =
  match t.mode with
  | Off -> ()
  | Digest -> fold t (op_code op)
  | Full ->
      fold t (op_code op);
      push_op t op

(* [record t (Read addr)] without building the op outside [Full] mode:
   the storage layer's per-I/O hook. *)
let record_read t addr =
  match t.mode with Off -> () | Digest -> fold t (code addr 0) | Full -> record t (Read addr)

let record_write t addr =
  match t.mode with Off -> () | Digest -> fold t (code addr 1) | Full -> record t (Write addr)

let length t = t.length
let digest t = get64 t.hash 0
let ops t = Array.to_list (Array.sub t.ops_buf 0 t.ops_len)

(* Span labels are part of the algorithm's public phase structure, never
   of the data, so they are kept out of the op digest: [equal] still
   compares exactly what Bob sees. *)
let span_enter t label =
  match t.mode with
  | Off -> ()
  | Digest | Full ->
      t.open_spans <- (label, t.depth, t.length, digest t) :: t.open_spans;
      t.depth <- t.depth + 1

let span_exit t =
  match t.mode with
  | Off -> ()
  | Digest | Full -> (
      match t.open_spans with
      | [] -> invalid_arg "Trace.span_exit: no open span"
      | (label, depth, start_length, start_hash) :: rest ->
          t.open_spans <- rest;
          t.depth <- depth;
          t.rev_spans <-
            {
              label;
              depth;
              start_length;
              start_hash;
              end_length = t.length;
              end_hash = digest t;
            }
            :: t.rev_spans)

(* Closing is exception-safe so that a mid-phase refusal (such as a
   Residency.Overflow) still leaves a usable span record. *)
let with_span t label f =
  match t.mode with
  | Off -> f ()
  | Digest | Full -> (
      span_enter t label;
      match f () with
      | v ->
          span_exit t;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          span_exit t;
          Printexc.raise_with_backtrace e bt)

let spans t = List.rev t.rev_spans

let same_ops a b =
  a.ops_len = b.ops_len
  &&
  let rec eq i = i >= a.ops_len || (a.ops_buf.(i) = b.ops_buf.(i) && eq (i + 1)) in
  eq 0

let equal a b =
  a.length = b.length && digest a = digest b
  &&
  match (a.mode, b.mode) with
  | Full, Full -> same_ops a b
  | _ -> true

(* Pinpoint the first labelled span at which two traces part ways.
   Spans are compared in completion order; the structure (labels,
   nesting) is public, so a structural mismatch is itself reported. *)
type divergence =
  | Identical
  | In_span of span * span
  | Structural of string
  | Outside_spans

let first_divergence a b =
  if equal a b then Identical
  else
    let rec walk sa sb =
      match (sa, sb) with
      | [], [] -> Outside_spans
      | [], s :: _ | s :: _, [] ->
          Structural (Printf.sprintf "span %S present in only one trace" s.label)
      | x :: xa, y :: yb ->
          if x.label <> y.label || x.depth <> y.depth then
            Structural (Printf.sprintf "span order differs: %S vs %S" x.label y.label)
          else if x.start_length = y.start_length && x.start_hash = y.start_hash
                  && (x.end_length <> y.end_length || x.end_hash <> y.end_hash)
          then In_span (x, y)
          else walk xa yb
    in
    walk (spans a) (spans b)

let diverging_label a b =
  match first_divergence a b with
  | Identical -> None
  | In_span (s, _) -> Some s.label
  | Structural msg -> Some msg
  | Outside_spans -> Some "<outside spans>"
