(* What the suite needs from the machine: a clock, the reference kernel
   every timing is normalized against, a private scratch directory, and
   the facts an --out record carries about where it was measured. *)

let now_ns = Odex_telemetry.Telemetry.now_ns
let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* [time f] is [(f (), nanoseconds)]. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_ns t0)

(* The reference kernel: allocate 65536 boxed tuples and stable-sort
   them. Single-domain compute plus allocation over a working set about
   the size of one core's L2 (2.5 MB), so it feels the same cache and
   memory contention as the workloads without being bound by memory
   latency. About 32 ms on a 2-vCPU Xeon. Inputs are fixed, so every call
   does identical work. *)
let ref_kernel () =
  let st = Random.State.make [| 0x0dec |] in
  let a = Array.init 65536 (fun i -> (Random.State.bits st, i)) in
  Array.stable_sort compare a;
  Sys.opaque_identity (snd a.(0))

(* A full major collection first, untimed, so the kernel never pays for
   the garbage the previous op left behind: without it the kernel's time
   tracks the workload's heap, not the host. *)
let ref_ms () =
  Gc.full_major ();
  snd (time (fun () -> ignore (ref_kernel ()))) /. 1e6

(* ---- private scratch directory for file-backed stores ---- *)

let rec remove_tree path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch = ref None

(* Created on first use under [Filename.get_temp_dir_name ()] (so under
   $TMPDIR when set) and removed at exit, whether the run returns, raises
   or is interrupted. *)
let scratch_dir () =
  match !scratch with
  | Some d -> d
  | None ->
      let d = Filename.temp_dir "odex-bench-" "" in
      scratch := Some d;
      at_exit (fun () -> remove_tree d);
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm ];
      d

(* ---- provenance ---- *)

let nproc () = Domain.recommended_domain_count ()
let ocaml_version = Sys.ocaml_version

let git_rev () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic ->
      let line = In_channel.input_line ic in
      (match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev -> String.trim rev
      | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"
