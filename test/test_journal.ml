(* The write-ahead journal (DESIGN.md §10): crash atomicity, recovery
   obliviousness, and phase-checkpointed resume.

   The centerpiece is the kill-at-every-op sweep: a small journaled sort
   is killed after every single backend operation, reopened with
   [resume:true], and must (a) come back consistent and finish correctly,
   (b) never reuse a (key, nonce) pair across the crash, and (c) produce
   a replay and commit schedule that is bit-identical across a pair of
   same-shape, different-data inputs — recovery leaks nothing. *)

open Odex_extmem

let temp_pair () =
  (Filename.temp_file "odex_jtest" ".store", Filename.temp_file "odex_jtest" ".journal")

let cleanup paths = List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths

let with_temp_pair f =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) (fun () -> f sp jp)

(* ---------------- journal unit layer ---------------- *)

let payload i = Bytes.init 16 (fun j -> Char.chr ((i + (7 * j)) land 0xFF))

let test_append_commit_bookkeeping () =
  with_temp_pair (fun sp jp ->
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      let b = Journal.backend j in
      b.ensure 8;
      for i = 0 to 2 do
        Util.write_block b i (payload i)
      done;
      let buf =
        Util.big_of_bytes
          (Bytes.concat Bytes.empty (List.init 4 (fun i -> payload (10 + i))))
      in
      b.write_run ~addr:3 ~count:4 ~payload:16 ~buf ~off:0;
      Alcotest.(check (list (pair int int)))
        "append schedule: one record per run"
        [ (0, 1); (1, 1); (2, 1); (3, 4) ]
        (Journal.append_log j);
      Alcotest.(check int) "pending bytes" ((3 * (32 + 16)) + (32 + 64)) (Journal.pending_bytes j);
      (* Deferred apply: the inner store is untouched, but the overlay
         serves read-your-writes through the decorator. *)
      Alcotest.(check bytes) "pending write readable" (payload 1) (Util.read_block b 1);
      Alcotest.(check bytes) "pending run readable" (payload 12) (Util.read_block b 5);
      Journal.commit j;
      Alcotest.(check int) "commit empties the tail" 0 (Journal.pending_bytes j);
      Alcotest.(check bool) "commits counted" true (Journal.commits j >= 1);
      (* Now applied in place. *)
      for i = 0 to 2 do
        Alcotest.(check bytes) (Printf.sprintf "block %d" i) (payload i) (Util.read_block b i)
      done;
      Alcotest.(check bytes) "run block" (payload 12) (Util.read_block b 5);
      b.close ())

let test_auto_commit_bounds_tail () =
  with_temp_pair (fun sp jp ->
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j =
        Journal.create ~auto_commit_bytes:64 ~path:jp ~payload_size:16 ~durable:false
          ~replay:false inner
      in
      let b = Journal.backend j in
      b.ensure 16;
      for i = 0 to 15 do
        Util.write_block b i (payload i)
      done;
      Alcotest.(check bool) "auto-commits fired" true (Journal.commits j >= 4);
      Alcotest.(check bool) "tail stays bounded" true
        (Journal.pending_bytes j <= 64 + 32 + 16);
      b.close ())

(* The decorator against a map model: random writes, reads, holds,
   releases and commits on overlapping addresses, under an auto-commit
   threshold of about two records, so auto-commits fire between ops and
   a held group grows the arena well past its first size. Every read
   must see the model's latest write (zeros where none). The sequence
   ends in a crash — [abandon], or, when the inner store is armed to
   die after a few dozen operations, at that kill, which inside a
   commit lands after its marker — and a replayed reopen must land
   exactly on the model as of the last commit, explicit or automatic. *)
type model_op = Write of int * int * int | Read of int * int | Hold | Release | Commit

let journal_model_prop =
  let blocks = 24 and payload = 16 in
  let open QCheck2.Gen in
  let run =
    pair (int_range 0 (blocks - 1)) (int_range 1 6) >|= fun (a, c) -> (a, min c (blocks - a))
  in
  let op =
    frequency
      [
        (6, map2 (fun (a, c) v -> Write (a, c, v)) run (int_range 0 255));
        (4, map (fun (a, c) -> Read (a, c)) run);
        (1, pure Hold);
        (1, pure Release);
        (1, pure Commit);
      ]
  in
  let block v i = Bytes.init payload (fun k -> Char.chr ((v + (31 * i) + k) land 0xFF)) in
  Util.qcheck_case ~count:150 ~name:"journal matches a map model"
    (pair (list_size (int_range 1 80) op) (opt (int_range 0 60)))
    (fun (ops, kill) ->
      with_temp_pair (fun sp jp ->
          let inner = Backend.file ~path:sp ~payload_size:payload in
          let inner = match kill with None -> inner | Some ops -> Backend.crash_after ~ops inner in
          let j =
            Journal.create ~auto_commit_bytes:100 ~path:jp ~payload_size:payload ~durable:false
              ~replay:false inner
          in
          let b = Journal.backend j in
          b.ensure blocks;
          let live = Array.make blocks (Bytes.make payload '\000') in
          let committed = ref (Array.copy live) and reads_ok = ref true and dead = ref false in
          let step = function
            | Write (a, c, v) ->
                for i = 0 to c - 1 do
                  live.(a + i) <- block v i
                done;
                let buf = Util.big_of_bytes (Bytes.concat Bytes.empty (List.init c (block v))) in
                b.write_run ~addr:a ~count:c ~payload ~buf ~off:0
            | Read (a, c) ->
                let buf = Odex_crypto.Bigbuf.create (c * payload) in
                b.read_run ~addr:a ~count:c ~payload ~buf ~off:0;
                let got = Util.bytes_of_big buf in
                for i = 0 to c - 1 do
                  if Bytes.sub got (i * payload) payload <> live.(a + i) then reads_ok := false
                done
            | Hold -> Journal.hold j
            | Release -> Journal.release j
            | Commit -> Journal.commit j
          in
          List.iter
            (fun op ->
              if not !dead then begin
                let commits = Journal.commits j in
                match step op with
                | () -> if Journal.commits j > commits then committed := Array.copy live
                | exception Backend.Crashed -> (
                    (* A kill in a read precedes any marker; one in a
                       write's auto-commit or in a commit follows it. *)
                    dead := true;
                    match op with Read _ -> () | _ -> committed := Array.copy live)
              end)
            ops;
          Journal.abandon j;
          let j =
            Journal.create ~path:jp ~payload_size:payload ~durable:false ~replay:true
              (Backend.file ~path:sp ~payload_size:payload)
          in
          let b = Journal.backend j in
          Fun.protect
            ~finally:(fun () -> b.close ())
            (fun () ->
              b.ensure blocks;
              !reads_ok
              && Array.for_all Fun.id
                   (Array.mapi (fun a want -> Util.read_block b a = want) !committed))))

(* A crash between a commit's marker and its completed in-place apply is
   exactly what the redo log exists for: reopening replays the whole
   committed group and the store is whole. *)
let test_replay_heals_crashed_apply () =
  with_temp_pair (fun sp jp ->
      let inner =
        Backend.crash_after ~ops:2 (Backend.file ~path:sp ~payload_size:16)
      in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      let b = Journal.backend j in
      b.ensure 4;
      Util.write_block b 0 (payload 0);
      Util.write_block b 1 (payload 1);
      Util.write_block b 2 (payload 2);
      (* The commit marker lands, then the third in-place apply dies. *)
      (match Journal.commit j with
      | () -> Alcotest.fail "expected the crash"
      | exception Backend.Crashed -> ());
      Journal.abandon j;
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner in
      Alcotest.(check (list (pair int int)))
        "replay re-applies every intact record"
        [ (0, 1); (1, 1); (2, 1) ]
        (Journal.replay_log j);
      Alcotest.(check int) "journal truncated after replay" 0 (Journal.pending_bytes j);
      let b = Journal.backend j in
      for i = 0 to 2 do
        Alcotest.(check bytes)
          (Printf.sprintf "block %d healed" i)
          (payload i) (Util.read_block b i)
      done;
      b.close ())

(* Journal-file surgery on a marked-committed-but-unapplied group: a torn
   tail (short body) and a corrupted body byte must both stop replay at
   the damage, never apply garbage. And a group with no commit marker at
   all must be discarded wholesale — that is the rollback boundary. *)
let test_torn_tail_discarded () =
  let header_bytes = Journal.header_bytes in
  let record_bytes = 32 + 16 in
  (* Four records, committed (marker durable) but zero in-place applies:
     the inner store crashes on the commit's first apply. *)
  let write_records sp jp =
    let inner = Backend.crash_after ~ops:0 (Backend.file ~path:sp ~payload_size:16) in
    let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
    let b = Journal.backend j in
    b.ensure 4;
    for i = 0 to 3 do
      Util.write_block b i (payload i)
    done;
    (match Journal.commit j with
    | () -> Alcotest.fail "expected the crash"
    | exception Backend.Crashed -> ());
    Journal.abandon j
  in
  with_temp_pair (fun sp jp ->
      write_records sp jp;
      (* Cut 6 bytes off the last record's body. *)
      let fd = Unix.openfile jp [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (header_bytes + (4 * record_bytes) - 6);
      Unix.close fd;
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner in
      Alcotest.(check (list (pair int int)))
        "replay stops at the torn record"
        [ (0, 1); (1, 1); (2, 1) ]
        (Journal.replay_log j);
      (Journal.backend j).close ());
  with_temp_pair (fun sp jp ->
      write_records sp jp;
      (* Flip one byte inside record 2's body. *)
      let fd = Unix.openfile jp [ Unix.O_RDWR ] 0 in
      let pos = header_bytes + (2 * record_bytes) + 32 + 5 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let c = Bytes.create 1 in
      ignore (Unix.read fd c 0 1);
      Bytes.set c 0 (Char.chr (Char.code (Bytes.get c 0) lxor 0xFF));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd c 0 1);
      Unix.close fd;
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner in
      Alcotest.(check (list (pair int int)))
        "checksum failure stops replay before the corrupt record"
        [ (0, 1); (1, 1) ]
        (Journal.replay_log j);
      (Journal.backend j).close ());
  (* No commit marker: the whole intact tail is provisional, and reopen
     rolls it back instead of replaying it. *)
  with_temp_pair (fun sp jp ->
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      let b = Journal.backend j in
      b.ensure 4;
      for i = 0 to 3 do
        Util.write_block b i (payload i)
      done;
      Journal.abandon j;
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner in
      Alcotest.(check (list (pair int int)))
        "uncommitted tail discarded, not replayed" []
        (Journal.replay_log j);
      let b = Journal.backend j in
      Alcotest.(check bool) "rolled back to zero-init, not the pending write" true
        (Util.read_block b 0 = Bytes.make 16 '\000');
      b.close ())

let test_checkpoint_slot_persistence () =
  with_temp_pair (fun sp jp ->
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      Journal.checkpoint j ~owner:"sorter/0/6" ~phase:3 ~cursor:7;
      Alcotest.(check (pair int int)) "own slot" (3, 7) (Journal.state j ~owner:"sorter/0/6");
      Alcotest.(check (pair int int))
        "foreign owner sees nothing" (0, 0)
        (Journal.state j ~owner:"other");
      Journal.abandon j;
      (* Survives a crash + replayed reopen. *)
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner in
      Alcotest.(check (pair int int))
        "slot survives crash" (3, 7)
        (Journal.state j ~owner:"sorter/0/6");
      Journal.abandon j;
      (* A torn header mid-rewrite degrades to "no checkpoint". *)
      let fd = Unix.openfile jp [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd 26 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xAB') 0 1);
      Unix.close fd;
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner in
      Alcotest.(check (pair int int))
        "torn header reads as no checkpoint" (0, 0)
        (Journal.state j ~owner:"sorter/0/6");
      Journal.abandon j;
      (* replay:false deliberately discards a surviving slot. *)
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      Journal.checkpoint j ~owner:"x" ~phase:1 ~cursor:0;
      Journal.abandon j;
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      Alcotest.(check (pair int int))
        "fresh open drops the slot" (0, 0)
        (Journal.state j ~owner:"x");
      (Journal.backend j).close ())

(* Regression: [checkpoint] validated [phase] but not [cursor] — a
   negative cursor was accepted, persisted, and would aim a resumed
   re-attach at a bogus scratch base. Both must now be rejected, along
   with the other unrepresentable inputs. *)
let test_checkpoint_validation () =
  with_temp_pair (fun sp jp ->
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      let rejects name f =
        Alcotest.(check bool) name true
          (match f () with
          | exception Invalid_argument _ -> true
          | () -> false)
      in
      rejects "negative phase" (fun () ->
          Journal.checkpoint j ~owner:"x" ~phase:(-1) ~cursor:0);
      rejects "negative cursor" (fun () ->
          Journal.checkpoint j ~owner:"x" ~phase:3 ~cursor:(-7));
      rejects "phase 0 with nonzero cursor" (fun () ->
          Journal.checkpoint j ~owner:"x" ~phase:0 ~cursor:5);
      rejects "empty owner" (fun () -> Journal.checkpoint j ~owner:"" ~phase:1 ~cursor:0);
      rejects "overlong owner" (fun () ->
          Journal.checkpoint j
            ~owner:(String.make (Journal.max_owner_bytes + 1) 'a')
            ~phase:1 ~cursor:0);
      Alcotest.(check (pair int int))
        "rejected checkpoints left no slot" (0, 0)
        (Journal.state j ~owner:"x");
      (* (0, 0) is the reserved "no checkpoint" value: writing it is a
         clear, and occupancy is explicit — a cleared slot is free, not a
         slot that happens to hold zeros. *)
      Journal.checkpoint j ~owner:"x" ~phase:2 ~cursor:9;
      Journal.checkpoint j ~owner:"x" ~phase:0 ~cursor:0;
      Alcotest.(check (pair int int)) "phase 0 clears" (0, 0) (Journal.state j ~owner:"x");
      Alcotest.(check int) "cleared slot is freed" 0 (List.length (Journal.slots j));
      (Journal.backend j).close ())

(* The bug this PR fixes: the header used to hold ONE (owner, phase,
   cursor) slot, so an ORAM rebuild, the ext-sort it runs internally,
   and an unrelated columnsort checkpointing on the same store silently
   clobbered each other — last writer wins, everyone else restarts (or
   worse, resumes from a foreign cursor). Each owner now keeps its own
   table slot. *)
let test_multi_owner_no_clobber () =
  with_temp_pair (fun sp jp ->
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner in
      Journal.checkpoint j ~owner:"oram-rebuild" ~phase:4 ~cursor:100;
      Journal.checkpoint j ~owner:"ext-sort/112/24" ~phase:2 ~cursor:112;
      Journal.checkpoint j ~owner:"columnsort/0/24" ~phase:7 ~cursor:48;
      let check_state name want owner =
        Alcotest.(check (pair int int)) name want (Journal.state j ~owner)
      in
      check_state "outer slot intact" (4, 100) "oram-rebuild";
      check_state "inner slot intact" (2, 112) "ext-sort/112/24";
      check_state "sibling slot intact" (7, 48) "columnsort/0/24";
      (* Updating one owner touches only its slot. *)
      Journal.checkpoint j ~owner:"ext-sort/112/24" ~phase:3 ~cursor:112;
      check_state "updated" (3, 112) "ext-sort/112/24";
      check_state "outer survives the update" (4, 100) "oram-rebuild";
      check_state "sibling survives the update" (7, 48) "columnsort/0/24";
      Journal.abandon j;
      (* All three survive a crashed reopen together. *)
      let inner = Backend.file ~path:sp ~payload_size:16 in
      let j = Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner in
      let check_state name want owner =
        Alcotest.(check (pair int int)) name want (Journal.state j ~owner)
      in
      check_state "outer survives crash" (4, 100) "oram-rebuild";
      check_state "inner survives crash" (3, 112) "ext-sort/112/24";
      check_state "sibling survives crash" (7, 48) "columnsort/0/24";
      Alcotest.(check int) "three slots live" 3 (List.length (Journal.slots j));
      (* Clearing one owner frees only its slot. *)
      Journal.clear j ~owner:"ext-sort/112/24";
      check_state "cleared" (0, 0) "ext-sort/112/24";
      check_state "outer survives the clear" (4, 100) "oram-rebuild";
      check_state "sibling survives the clear" (7, 48) "columnsort/0/24";
      (* Fill the table; overflow is loud, and evicts nobody. *)
      for i = 1 to Journal.max_slots - 2 do
        Journal.checkpoint j ~owner:(Printf.sprintf "filler/%d" i) ~phase:1 ~cursor:i
      done;
      Alcotest.(check int) "table full" Journal.max_slots (List.length (Journal.slots j));
      Alcotest.(check bool) "ninth owner rejected loudly" true
        (match Journal.checkpoint j ~owner:"one-too-many" ~phase:1 ~cursor:0 with
        | exception Invalid_argument _ -> true
        | () -> false);
      check_state "outer survives the overflow" (4, 100) "oram-rebuild";
      Alcotest.(check int) "nobody evicted" Journal.max_slots
        (List.length (Journal.slots j));
      (* A full table still accepts updates to existing owners. *)
      Journal.checkpoint j ~owner:"oram-rebuild" ~phase:5 ~cursor:100;
      check_state "update on a full table" (5, 100) "oram-rebuild";
      (Journal.backend j).close ())

(* Owner identity is the full string now (the v2 header stored a 64-bit
   FNV hash, where distinct owners could in principle alias): property —
   a checkpoint by one owner is never visible to any other owner. *)
let checkpoint_no_alias_prop =
  let owner_gen =
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 40))
  in
  Util.qcheck_case ~count:60 ~name:"distinct owners never alias"
    QCheck2.Gen.(pair owner_gen owner_gen)
    (fun (o1, o2) ->
      with_temp_pair (fun sp jp ->
          let inner = Backend.file ~path:sp ~payload_size:16 in
          let j =
            Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:false inner
          in
          Fun.protect
            ~finally:(fun () -> (Journal.backend j).close ())
            (fun () ->
              Journal.checkpoint j ~owner:o1 ~phase:3 ~cursor:11;
              let own = Journal.state j ~owner:o1 = (3, 11) in
              let foreign =
                if o1 = o2 then true else Journal.state j ~owner:o2 = (0, 0)
              in
              own && foreign)))

(* ---------------- retired formats are refused ---------------- *)

(* FNV-1a-64, re-derived here so the fixture bytes are produced
   independently of the implementation under test. *)
let fnv64 =
  let prime = 0x100000001B3L in
  fun h bytes ->
    let h = ref h in
    Bytes.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
      bytes;
    !h

let fnv64_offset = 0xCBF29CE484222325L

(* A sealed journaled store written by the current code, holding one
   checkpoint and one committed-but-unapplied record (the commit marker
   landed, the in-place apply did not), so a reopen that got past the
   header would replay into the store. *)
let with_sealed_journal f =
  with_temp_pair (fun sp jp ->
      let b = 2 in
      let spec ~crash =
        let file = Storage.File { path = sp } in
        let inner =
          match crash with None -> file | Some ops -> Storage.Crashing { inner = file; ops }
        in
        Storage.Journaled { inner; path = jp; durable = false }
      in
      let cipher = Odex_crypto.Cipher.key_of_int 5 in
      let s = Storage.create ~cipher ~backend:(spec ~crash:None) ~block_size:b () in
      let base = Storage.alloc s 4 in
      Storage.checkpoint s ~owner:"retired" ~phase:2 ~cursor:base;
      Storage.close s;
      (* One op for the reopen's flush, then the crash takes out the
         commit's in-place apply. *)
      let s =
        Storage.create ~cipher ~resume:true ~backend:(spec ~crash:(Some 1)) ~block_size:b ()
      in
      Storage.write s base (Block.make b);
      (match Storage.sync s with
      | () -> Alcotest.fail "expected the simulated crash"
      | exception Backend.Crashed -> ());
      Storage.abandon s;
      f ~sp ~jp ~reopen:(fun ~resume () ->
          Storage.close
            (Storage.create ~cipher ~resume ~backend:(spec ~crash:None) ~block_size:b ())))

(* An ODEXJRN3 header naming engine id 1 (the retired PRF keystream)
   under a valid checksum is refused before anything replays. *)
let test_retired_journal_engine_refused () =
  with_sealed_journal (fun ~sp ~jp ~reopen ->
      let h = Bytes.of_string (Util.read_file jp) in
      Alcotest.(check string) "fixture is a v3 journal" "ODEXJRN3" (Bytes.sub_string h 0 8);
      Alcotest.(check bool) "fixture has a record to replay" true
        (Bytes.length h > Journal.header_bytes);
      Bytes.set_int64_le h 24 1L;
      let cks = Journal.header_bytes - 8 in
      Bytes.set_int64_le h cks (fnv64 fnv64_offset (Bytes.sub h 0 cks));
      Out_channel.with_open_bin jp (fun oc -> Out_channel.output_bytes oc h);
      List.iter
        (fun resume ->
          Util.check_refused
            ~what:(Printf.sprintf "journal engine id 1 (resume %b)" resume)
            ~cause:"retired cipher engine id 1" ~paths:[ sp; jp ] (reopen ~resume))
        [ true; false ])

(* A v2 journal ("ODEXJRN2", 64-byte single-slot header) is a retired
   format: it reaches the bad-magic refusal and is never truncated or
   rewritten. *)
let test_v2_journal_refused () =
  with_sealed_journal (fun ~sp ~jp ~reopen ->
      let payload_size = Flat.stride_of ~block_size:2 in
      let h = Bytes.make 64 '\000' in
      Bytes.blit_string "ODEXJRN2" 0 h 0 8;
      Bytes.set_int64_le h 8 (Int64.of_int payload_size);
      Bytes.set_int64_le h 16 (fnv64 fnv64_offset (Bytes.of_string "sorter/0/6"));
      Bytes.set_int64_le h 24 3L (* phase *);
      Bytes.set_int64_le h 32 7L (* cursor *);
      Bytes.set_int64_le h 40 64L (* committed tail *);
      Bytes.set_int64_le h 48 1L (* engine id *);
      Bytes.set_int64_le h 56 (fnv64 fnv64_offset (Bytes.sub h 0 56));
      Out_channel.with_open_bin jp (fun oc -> Out_channel.output_bytes oc h);
      List.iter
        (fun resume ->
          Util.check_refused
            ~what:(Printf.sprintf "v2 journal (resume %b)" resume)
            ~cause:"unrecognized journal format (bad magic)" ~paths:[ sp; jp ] (reopen ~resume))
        [ true; false ])

let test_foreign_journal_rejected () =
  with_temp_pair (fun sp jp ->
      let oc = open_out_bin jp in
      output_string oc (String.make 128 'z');
      close_out oc;
      let inner = Backend.file ~path:sp ~payload_size:16 in
      Alcotest.(check bool) "foreign journal refused" true
        (match Journal.create ~path:jp ~payload_size:16 ~durable:false ~replay:true inner with
        | exception Invalid_argument _ -> true
        | j ->
            (Journal.backend j).close ();
            false);
      inner.close ())

(* ---------------- storage layer ---------------- *)

(* Journaling is a physical-only layer: the counted I/O schedule — the
   adversary's view — must be bit-identical with the journal on and off.
   (The journal file itself is server-side state derived from that same
   view.) *)
let test_trace_parity_journal_on_off () =
  with_temp_pair (fun sp jp ->
      let keys = Util.random_keys (Odex_crypto.Rng.create ~seed:11) 96 ~bound:1000 in
      let run backend =
        let s = Storage.create ~trace_mode:Trace.Digest ~backend ~block_size:2 () in
        Fun.protect
          ~finally:(fun () -> Storage.close s)
          (fun () ->
            let a = Ext_array.of_cells s ~block_size:2 (Util.cells_of_keys keys) in
            Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:4 a;
            Util.check_sorted_by_key (Storage.backend_kind s) a;
            let st = Storage.stats s and tr = Storage.trace s in
            (Stats.reads st, Stats.writes st, Trace.length tr, Trace.digest tr))
      in
      let r0, w0, l0, d0 = run (Storage.File { path = sp }) in
      cleanup [ sp ];
      let r1, w1, l1, d1 =
        run (Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false })
      in
      Alcotest.(check int) "same reads" r0 r1;
      Alcotest.(check int) "same writes" w0 w1;
      Alcotest.(check int) "same trace length" l0 l1;
      Alcotest.(check int64) "same trace digest" d0 d1)

(* ---------------- the kill-at-every-op sweep ---------------- *)

(* Raw out-of-band scan of the sealed store file: (nonce, ciphertext)
   per block — the adversary's retained disk image. Blocks that are all
   zero bytes are the [ensure] zero-fill, not a seal event (a real seal
   of nonce 0 has the keystream as ciphertext), and are skipped: a crash
   between a group's ensure and its committed apply legitimately leaves
   them behind. *)
let scan_sealed path ~payload_size =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let n = max 0 ((len - Backend.file_header_bytes) / payload_size) in
        List.filter_map Fun.id
          (List.init n (fun i ->
               seek_in ic (Backend.file_header_bytes + (i * payload_size));
               let b = Bytes.create payload_size in
               really_input ic b 0 payload_size;
               if Bytes.for_all (fun c -> c = '\000') b then None
               else Some (Bytes.get_int64_le b 0, Bytes.sub_string b 8 (payload_size - 8)))))

(* The precise no-reuse property: one nonce may appear at several points
   of history only as the SAME seal event (same ciphertext) — e.g. a
   replay copying a record verbatim. The same nonce over two different
   ciphertexts is a (key, nonce) reuse, the catastrophic failure. *)
let check_no_nonce_reuse name scans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (nonce, ct) ->
      if nonce <> -1L then
        match Hashtbl.find_opt tbl nonce with
        | Some ct' ->
            if ct' <> ct then
              Alcotest.failf "%s: nonce %Ld sealed two different payloads" name nonce
        | None -> Hashtbl.add tbl nonce ct)
    scans

type sweep_obs = {
  crashed : bool;
  appends : (int * int) list;  (* journal records of the killed run *)
  replays : (int * int) list;  (* records re-applied on reopen *)
  resumed_phase : int;  (* ext-sort checkpoint found on reopen *)
  resumed_ios : int;  (* counted I/Os of the resumed completion *)
}

let sort_keys = 12 (* 6 blocks of 2 -> pads to n2 = 8: exercises the scratch path *)
let sweep_b = 2
let sweep_m = 4

(* Counted I/O cost of the sort alone on a journaled store, crash-free:
   the baseline a resumed run must beat. *)
let full_sort_ios keys =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) @@ fun () ->
  let spec = Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false } in
  let s = Storage.create ~trace_mode:Trace.Digest ~backend:spec ~block_size:sweep_b () in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let a = Ext_array.of_cells s ~block_size:sweep_b (Util.cells_of_keys keys) in
      let before = Stats.total (Storage.stats s) in
      Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:sweep_m a;
      Stats.total (Storage.stats s) - before)

(* Kill after exactly [k] backend ops, reopen with resume, finish the
   sort, and check everything the issue demands of that crash point.
   Sealed under ChaCha20 (the bucket sweep below keeps the PRF engine,
   so both engines get the full kill treatment): the reopen must name
   the engine, exercising the engine id persisted in both the store
   header and the journal header across every crash point. *)
let sweep_point ~keys ~full_ios k =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) @@ fun () ->
  let cipher = Odex_crypto.Cipher.key_of_int 99 in
  let cipher_engine = Odex_crypto.Cipher.Chacha20 in
  let payload_size = 8 + Block.encoded_size sweep_b in
  let cells = Util.cells_of_keys keys in
  let nblocks = (Array.length keys + sweep_b - 1) / sweep_b in
  let crash_spec =
    Storage.Journaled
      {
        inner = Storage.Crashing { inner = Storage.File { path = sp }; ops = k };
        path = jp;
        durable = false;
      }
  in
  let s =
    Storage.create ~cipher ~cipher_engine ~trace_mode:Trace.Digest ~backend:crash_spec
      ~block_size:sweep_b ()
  in
  let crashed, appends =
    match
      let a = Ext_array.of_cells s ~block_size:sweep_b cells in
      Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:sweep_m a;
      Storage.close s
    with
    | () -> (false, [])
    | exception Backend.Crashed ->
        let ap = Storage.journal_appends s in
        Storage.abandon s;
        (true, ap)
  in
  let scan_at_crash = scan_sealed sp ~payload_size in
  let resume_spec =
    Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false }
  in
  let s2 =
    Storage.create ~cipher ~cipher_engine ~resume:true ~trace_mode:Trace.Digest
      ~backend:resume_spec ~block_size:sweep_b ()
  in
  let replays = Storage.journal_replay s2 in
  let owner = Printf.sprintf "ext-sort/0/%d" nblocks in
  let resumed_phase, _ = Storage.checkpoint_state s2 ~owner in
  let a2 =
    if resumed_phase > 0 && Storage.capacity s2 >= nblocks then
      (* Phase 1 committed, so the input was fully consumed: re-attach
         and let the sort skip its finished phases. *)
      Ext_array.view s2 ~base:0 ~blocks:nblocks
    else if Storage.capacity s2 >= nblocks then begin
      (* Crashed before any committed phase (possibly mid-load): the
         replayed store is run-consistent but the logical input may be
         partial — reload it in place and restart. *)
      let v = Ext_array.view s2 ~base:0 ~blocks:nblocks in
      for i = 0 to nblocks - 1 do
        let blk = Block.make sweep_b in
        for j = 0 to sweep_b - 1 do
          let idx = (i * sweep_b) + j in
          if idx < Array.length cells then blk.(j) <- cells.(idx)
        done;
        Storage.write (Ext_array.storage v) (Ext_array.addr v i) blk
      done;
      v
    end
    else Ext_array.of_cells s2 ~block_size:sweep_b cells
  in
  let before = Stats.total (Storage.stats s2) in
  Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:sweep_m a2;
  let resumed_ios = Stats.total (Storage.stats s2) - before in
  let got = List.map (fun (it : Cell.item) -> it.key) (Ext_array.items a2) in
  let expect = List.sort compare (Array.to_list keys) in
  if got <> expect then
    Alcotest.failf "k=%d: resumed sort wrong — got [%s], want [%s]" k
      (String.concat ";" (List.map string_of_int got))
      (String.concat ";" (List.map string_of_int expect));
  if resumed_phase > 0 && resumed_ios >= full_ios then
    Alcotest.failf "k=%d: resume from phase %d cost %d I/Os, full run costs %d — no progress kept"
      k resumed_phase resumed_ios full_ios;
  Storage.close s2;
  check_no_nonce_reuse
    (Printf.sprintf "k=%d" k)
    (scan_at_crash @ scan_sealed sp ~payload_size);
  { crashed; appends; replays; resumed_phase; resumed_ios }

let keys_a = [| 9; 3; 12; 1; 15; 7; 2; 14; 5; 11; 4; 8 |]
let keys_b = [| 900; 420; 770; 130; 560; 210; 880; 640; 310; 50; 990; 700 |]

let test_kill_at_every_op_sweep () =
  assert (Array.length keys_a = sort_keys && Array.length keys_b = sort_keys);
  let full_a = full_sort_ios keys_a in
  let full_b = full_sort_ios keys_b in
  Alcotest.(check int) "pair inputs cost the same full sort" full_a full_b;
  let schedule = Alcotest.(list (pair int int)) in
  let saw_mid_sort_resume = ref false in
  let rec go k =
    if k > 2000 then Alcotest.fail "sweep never reached a crash-free run";
    let oa = sweep_point ~keys:keys_a ~full_ios:full_a k in
    let ob = sweep_point ~keys:keys_b ~full_ios:full_b k in
    (* Recovery obliviousness: at every crash point the journal's commit
       and replay schedules are functions of shape alone. *)
    Alcotest.(check bool) (Printf.sprintf "k=%d: same fate" k) oa.crashed ob.crashed;
    Alcotest.check schedule (Printf.sprintf "k=%d: same append schedule" k) oa.appends
      ob.appends;
    Alcotest.check schedule (Printf.sprintf "k=%d: same replay schedule" k) oa.replays
      ob.replays;
    Alcotest.(check int)
      (Printf.sprintf "k=%d: same resumed phase" k)
      oa.resumed_phase ob.resumed_phase;
    Alcotest.(check int)
      (Printf.sprintf "k=%d: same resumed I/O count" k)
      oa.resumed_ios ob.resumed_ios;
    if oa.resumed_phase > 0 then saw_mid_sort_resume := true;
    if oa.crashed then go (k + 1)
  in
  go 0;
  Alcotest.(check bool) "some crash points resumed mid-sort (not from scratch)" true
    !saw_mid_sort_resume

(* ---------------- the phase runner ---------------- *)

(* Every resumable algorithm attaches its scratch and numbers its phases
   through [Phases]; one table covers the attach rule. Each case plants
   the owner's slot (or not) on a store of 8 blocks, runs four phases
   over [scratch] blocks and finishes, recording which phases ran, where
   the scratch sits, how much the store grew and the slot after every
   phase. *)
type runner_case = {
  label : string;
  journaled : bool;
  planted : (int * int) option;  (** (phase, cursor) *)
  scratch : int;
  ran : int list;
  base : int;  (** where the scratch must sit *)
}

let runner_cases =
  [
    { label = "unjournaled store"; journaled = false; planted = None; scratch = 3;
      ran = [ 1; 2; 3; 4 ]; base = 8 };
    { label = "fresh start"; journaled = true; planted = None; scratch = 3;
      ran = [ 1; 2; 3; 4 ]; base = 8 };
    { label = "resume re-attaches at the cursor"; journaled = true; planted = Some (2, 4);
      scratch = 3; ran = [ 3; 4 ]; base = 4 };
    { label = "stale cursor restarts fresh"; journaled = true; planted = Some (2, 6);
      scratch = 3; ran = [ 1; 2; 3; 4 ]; base = 8 };
    { label = "zero scratch allocates nothing"; journaled = true; planted = None; scratch = 0;
      ran = [ 1; 2; 3; 4 ]; base = 8 };
  ]

let test_phase_runner () =
  List.iter
    (fun c ->
      with_temp_pair (fun sp jp ->
          let backend =
            if c.journaled then
              Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false }
            else Storage.Mem
          in
          let s = Storage.create ~backend ~block_size:2 () in
          Fun.protect ~finally:(fun () -> Storage.close s) @@ fun () ->
          ignore (Storage.alloc s 8);
          let owner = "runner/0/8" in
          Option.iter (fun (phase, cursor) -> Storage.checkpoint s ~owner ~phase ~cursor) c.planted;
          let commits = Storage.journal_commits s in
          let p = Phases.start s ~owner ~scratch:c.scratch in
          let scratch = Phases.scratch p in
          let at what = Printf.sprintf "%s: %s" c.label what in
          Alcotest.(check int) (at "scratch base") c.base (Ext_array.base scratch);
          Alcotest.(check int) (at "scratch blocks") c.scratch (Ext_array.blocks scratch);
          Alcotest.(check int) (at "store size")
            (8 + if c.base = 8 then c.scratch else 0)
            (Storage.capacity s);
          let ran = ref [] in
          for k = 1 to 4 do
            Phases.run p (fun () -> ran := k :: !ran);
            let skipped = 4 - List.length c.ran in
            let want = if c.journaled then (max k skipped, c.base) else (0, 0) in
            Alcotest.(check (pair int int))
              (at (Printf.sprintf "slot after phase %d" k))
              want (Storage.checkpoint_state s ~owner)
          done;
          Alcotest.(check (list int)) (at "phases run") c.ran (List.rev !ran);
          Phases.finish p;
          Alcotest.(check (pair int int)) (at "slot cleared") (0, 0)
            (Storage.checkpoint_state s ~owner);
          if not c.journaled then begin
            Alcotest.(check int) (at "no commit") commits (Storage.journal_commits s);
            Alcotest.(check int) (at "no slot") 0 (List.length (Storage.checkpoint_slots s))
          end))
    runner_cases

(* ---------------- bucket pipelines: kill-at-every-op ---------------- *)

(* The same sweep against the bucket pipelines' own checkpoints. The
   sort (owner "bucket-sort/<base>/<n>") checkpoints the scatter, each
   butterfly level, run formation, each merge pass and the copy-back;
   the permutation (owner "bucket-perm/<base>/<n>") the scatter, each
   level and the final emission. The permutation's output order is
   random, so its resumed output is checked as a multiset. The pair here is
   rank-isomorphic (shared rank r maps to 2r / 2r+1), because the merge
   phase's read order is rank-driven — recovery must still be
   bit-identical across the pair at every crash point. *)
let bk_cells = 40 (* 20 blocks of 2 against m = 18: zb = 4 is the floor *)
let bk_b = 2
let bk_m = 18
let bk_plan = Odex_sortnet.Bucket_sort.make_plan ~b:bk_b ~z_cells:8 ~n_cells:bk_cells

(* The overflow event is coin-public; the sweep wants the success path,
   so pick the first master whose (pure) coin replay routes cleanly. *)
let bk_master =
  let rec find c =
    if c > 5000 then failwith "no clean master below 5000 (Z=8 routing broken?)"
    else if
      Odex_sortnet.Bucket_sort.simulate_overflow bk_plan ~master:c ~b:bk_b
        ~n_blocks:(bk_cells / bk_b)
    then find (c + 1)
    else c
  in
  lazy (find 0)

(* The permutation draws its master from [rng]: the first seed whose
   master routes cleanly. *)
let bk_perm_seed =
  let master seed = Odex_crypto.Rng.int (Odex_crypto.Rng.create ~seed) 0x3FFFFFFF in
  let rec find seed =
    if seed > 5000 then failwith "no clean permutation seed below 5000"
    else if
      Odex_sortnet.Bucket_sort.simulate_overflow bk_plan ~master:(master seed) ~b:bk_b
        ~n_blocks:(bk_cells / bk_b)
    then find (seed + 1)
    else seed
  in
  lazy (find 0)

type bucket_pipeline = Sort | Permute

let bucket_owner pipeline nblocks =
  Printf.sprintf "%s/0/%d"
    (match pipeline with Sort -> "bucket-sort" | Permute -> "bucket-perm")
    nblocks

let bucket_run pipeline a =
  match pipeline with
  | Sort ->
      Odex_sortnet.Bucket_sort.sort ~plan:bk_plan ~master:(Lazy.force bk_master) ~real:true
        ~order:Order.Keys ~m:bk_m a
  | Permute ->
      let rng = Odex_crypto.Rng.create ~seed:(Lazy.force bk_perm_seed) in
      let o = Odex_sortnet.Bucket_sort.permute ~z_cells:8 ~rng ~m:bk_m a in
      if not o.ok then Alcotest.fail "bucket permute overflowed on a clean seed"

let bk_rank_keys =
  let ranks =
    let a = Array.init bk_cells (fun i -> i) in
    let rng = Odex_crypto.Rng.create ~seed:0xB5EED in
    for i = bk_cells - 1 downto 1 do
      let j = Odex_crypto.Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  fun parity -> Array.map (fun r -> (2 * r) + parity) ranks

let bucket_once pipeline s cells =
  let a = Ext_array.of_cells s ~block_size:bk_b cells in
  bucket_run pipeline a;
  a

let bucket_full_ios pipeline keys =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) @@ fun () ->
  let spec = Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false } in
  let s = Storage.create ~trace_mode:Trace.Digest ~backend:spec ~block_size:bk_b () in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let cells = Util.cells_of_keys keys in
      let a = Ext_array.of_cells s ~block_size:bk_b cells in
      let before = Stats.total (Storage.stats s) in
      bucket_run pipeline a;
      Stats.total (Storage.stats s) - before)

let bucket_sweep_point pipeline ~keys ~full_ios k =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) @@ fun () ->
  let cipher = Odex_crypto.Cipher.key_of_int 99 in
  let payload_size = 8 + Block.encoded_size bk_b in
  let cells = Util.cells_of_keys keys in
  let nblocks = bk_cells / bk_b in
  let crash_spec =
    Storage.Journaled
      {
        inner = Storage.Crashing { inner = Storage.File { path = sp }; ops = k };
        path = jp;
        durable = false;
      }
  in
  let s = Storage.create ~cipher ~trace_mode:Trace.Digest ~backend:crash_spec ~block_size:bk_b () in
  let crashed, appends =
    match
      ignore (bucket_once pipeline s cells);
      Storage.close s
    with
    | () -> (false, [])
    | exception Backend.Crashed ->
        let ap = Storage.journal_appends s in
        Storage.abandon s;
        (true, ap)
  in
  let scan_at_crash = scan_sealed sp ~payload_size in
  let resume_spec =
    Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false }
  in
  let s2 =
    Storage.create ~cipher ~resume:true ~trace_mode:Trace.Digest ~backend:resume_spec
      ~block_size:bk_b ()
  in
  let replays = Storage.journal_replay s2 in
  let owner = bucket_owner pipeline nblocks in
  let resumed_phase, _ = Storage.checkpoint_state s2 ~owner in
  let a2 =
    if resumed_phase > 0 && Storage.capacity s2 >= nblocks then
      (* The scatter phase committed, so the input was fully consumed:
         re-attach and let the pipeline skip its finished phases. *)
      Ext_array.view s2 ~base:0 ~blocks:nblocks
    else if Storage.capacity s2 >= nblocks then begin
      let v = Ext_array.view s2 ~base:0 ~blocks:nblocks in
      for i = 0 to nblocks - 1 do
        let blk = Block.make bk_b in
        for j = 0 to bk_b - 1 do
          let idx = (i * bk_b) + j in
          if idx < Array.length cells then blk.(j) <- cells.(idx)
        done;
        Storage.write (Ext_array.storage v) (Ext_array.addr v i) blk
      done;
      v
    end
    else Ext_array.of_cells s2 ~block_size:bk_b cells
  in
  let before = Stats.total (Storage.stats s2) in
  bucket_run pipeline a2;
  let resumed_ios = Stats.total (Storage.stats s2) - before in
  let got = List.map (fun (it : Cell.item) -> it.key) (Ext_array.items a2) in
  let got = match pipeline with Sort -> got | Permute -> List.sort compare got in
  let expect = List.sort compare (Array.to_list keys) in
  if got <> expect then
    Alcotest.failf "bucket k=%d: resumed output wrong — got [%s], want [%s]" k
      (String.concat ";" (List.map string_of_int got))
      (String.concat ";" (List.map string_of_int expect));
  if resumed_phase > 0 && resumed_ios >= full_ios then
    Alcotest.failf
      "bucket k=%d: resume from phase %d cost %d I/Os, full run costs %d — no progress kept" k
      resumed_phase resumed_ios full_ios;
  (* The completed run must always clear its slot. *)
  Alcotest.(check (pair int int))
    (Printf.sprintf "bucket k=%d: slot cleared" k)
    (0, 0)
    (Storage.checkpoint_state s2 ~owner);
  Storage.close s2;
  check_no_nonce_reuse
    (Printf.sprintf "bucket k=%d" k)
    (scan_at_crash @ scan_sealed sp ~payload_size);
  { crashed; appends; replays; resumed_phase; resumed_ios }

let bucket_kill_at_every_op_sweep pipeline () =
  let keys_a = bk_rank_keys 0 and keys_b = bk_rank_keys 1 in
  let full_a = bucket_full_ios pipeline keys_a in
  let full_b = bucket_full_ios pipeline keys_b in
  Alcotest.(check int) "isomorphic pair costs the same full sort" full_a full_b;
  let schedule = Alcotest.(list (pair int int)) in
  let saw_mid_sort_resume = ref false in
  let rec go k =
    if k > 4000 then Alcotest.fail "bucket sweep never reached a crash-free run";
    let oa = bucket_sweep_point pipeline ~keys:keys_a ~full_ios:full_a k in
    let ob = bucket_sweep_point pipeline ~keys:keys_b ~full_ios:full_b k in
    Alcotest.(check bool) (Printf.sprintf "bucket k=%d: same fate" k) oa.crashed ob.crashed;
    Alcotest.check schedule
      (Printf.sprintf "bucket k=%d: same append schedule" k)
      oa.appends ob.appends;
    Alcotest.check schedule
      (Printf.sprintf "bucket k=%d: same replay schedule" k)
      oa.replays ob.replays;
    Alcotest.(check int)
      (Printf.sprintf "bucket k=%d: same resumed phase" k)
      oa.resumed_phase ob.resumed_phase;
    Alcotest.(check int)
      (Printf.sprintf "bucket k=%d: same resumed I/O count" k)
      oa.resumed_ios ob.resumed_ios;
    if oa.resumed_phase > 0 then saw_mid_sort_resume := true;
    if oa.crashed then go (k + 1)
  in
  go 0;
  Alcotest.(check bool) "some crash points resumed mid-sort (not from scratch)" true
    !saw_mid_sort_resume

(* Journaling must stay invisible to the counted schedule for the new
   sorter too, including its checkpoint writes. *)
let test_bucket_trace_parity_journal_on_off () =
  with_temp_pair (fun sp jp ->
      let keys = bk_rank_keys 0 in
      let run backend =
        let s = Storage.create ~trace_mode:Trace.Digest ~backend ~block_size:bk_b () in
        Fun.protect
          ~finally:(fun () -> Storage.close s)
          (fun () ->
            let a = bucket_once Sort s (Util.cells_of_keys keys) in
            Util.check_sorted_by_key (Storage.backend_kind s) a;
            let st = Storage.stats s and tr = Storage.trace s in
            (Stats.reads st, Stats.writes st, Trace.length tr, Trace.digest tr))
      in
      let r0, w0, l0, d0 = run (Storage.File { path = sp }) in
      cleanup [ sp ];
      let r1, w1, l1, d1 =
        run (Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false })
      in
      Alcotest.(check int) "same reads" r0 r1;
      Alcotest.(check int) "same writes" w0 w1;
      Alcotest.(check int) "same trace length" l0 l1;
      Alcotest.(check int64) "same trace digest" d0 d1)

(* ---------------- sharded stripe: kill-at-every-op ---------------- *)

(* The journal composes OUTSIDE the stripe (Journaled-inside-Sharded is
   rejected), so its records carry logical addresses and replay pushes
   each one back through the PRP routing — every server receives its own
   slice of the recovery. The sweep kills a journaled K=2 stripe after
   every op and asserts the per-server view of recovery is a function of
   shape alone: same logical replay schedule, same per-server projection
   of it, and bit-identical per-server traces of the resumed completion. *)

let sh_shards = 2
let sh_seed = 0x5A4D

let sharded_spec ~crash_ops sp jp =
  let stripe =
    Storage.Sharded
      { inner = Storage.File { path = sp }; shards = sh_shards; seed = sh_seed }
  in
  let inner =
    match crash_ops with
    | None -> stripe
    | Some ops -> Storage.Crashing { inner = stripe; ops }
  in
  Storage.Journaled { inner; path = jp; durable = false }

let sharded_cleanup sp jp =
  Storage.remove_spec_files (sharded_spec ~crash_ops:None sp jp)

(* Project a logical replay schedule [(addr, count); ...] onto each
   server: the sequence of inner addresses it is asked to rewrite, in
   replay order. *)
let per_server_replays replays =
  let per = Array.make sh_shards [] in
  List.iter
    (fun (addr, count) ->
      for a = addr to addr + count - 1 do
        let s, inner = Backend.shard_route ~shards:sh_shards ~seed:sh_seed a in
        per.(s) <- inner :: per.(s)
      done)
    replays;
  Array.map List.rev per

let sharded_full_sort_ios keys =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> sharded_cleanup sp jp) @@ fun () ->
  let s =
    Storage.create ~trace_mode:Trace.Digest ~backend:(sharded_spec ~crash_ops:None sp jp)
      ~block_size:sweep_b ()
  in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let a = Ext_array.of_cells s ~block_size:sweep_b (Util.cells_of_keys keys) in
      let before = Stats.total (Storage.stats s) in
      Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:sweep_m a;
      Stats.total (Storage.stats s) - before)

type sharded_obs = {
  h_crashed : bool;
  h_appends : (int * int) list;
  h_server_replays : int list array;  (* per-server replay projections *)
  h_resumed_phase : int;
  h_server_traces : (int * int64) array;  (* per-server view of the completion *)
}

let sharded_sweep_point ~keys ~full_ios k =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> sharded_cleanup sp jp) @@ fun () ->
  let cells = Util.cells_of_keys keys in
  let nblocks = (Array.length keys + sweep_b - 1) / sweep_b in
  let s =
    Storage.create ~trace_mode:Trace.Digest
      ~backend:(sharded_spec ~crash_ops:(Some k) sp jp)
      ~block_size:sweep_b ()
  in
  let crashed, appends =
    match
      let a = Ext_array.of_cells s ~block_size:sweep_b cells in
      Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:sweep_m a;
      Storage.close s
    with
    | () -> (false, [])
    | exception Backend.Crashed ->
        let ap = Storage.journal_appends s in
        Storage.abandon s;
        (true, ap)
  in
  let s2 =
    Storage.create ~resume:true ~trace_mode:Trace.Digest
      ~backend:(sharded_spec ~crash_ops:None sp jp)
      ~block_size:sweep_b ()
  in
  Alcotest.(check (option int))
    (Printf.sprintf "k=%d: reopened as a %d-stripe" k sh_shards)
    (Some sh_shards) (Storage.shard_count s2);
  let replays = Storage.journal_replay s2 in
  let owner = Printf.sprintf "ext-sort/0/%d" nblocks in
  let resumed_phase, _ = Storage.checkpoint_state s2 ~owner in
  let a2 =
    if resumed_phase > 0 && Storage.capacity s2 >= nblocks then
      Ext_array.view s2 ~base:0 ~blocks:nblocks
    else if Storage.capacity s2 >= nblocks then begin
      let v = Ext_array.view s2 ~base:0 ~blocks:nblocks in
      for i = 0 to nblocks - 1 do
        let blk = Block.make sweep_b in
        for j = 0 to sweep_b - 1 do
          let idx = (i * sweep_b) + j in
          if idx < Array.length cells then blk.(j) <- cells.(idx)
        done;
        Storage.write (Ext_array.storage v) (Ext_array.addr v i) blk
      done;
      v
    end
    else Ext_array.of_cells s2 ~block_size:sweep_b cells
  in
  let before = Stats.total (Storage.stats s2) in
  Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.bitonic_windowed ~m:sweep_m a2;
  let resumed_ios = Stats.total (Storage.stats s2) - before in
  let got = List.map (fun (it : Cell.item) -> it.key) (Ext_array.items a2) in
  let expect = List.sort compare (Array.to_list keys) in
  if got <> expect then Alcotest.failf "sharded k=%d: resumed sort wrong" k;
  if resumed_phase > 0 && resumed_ios >= full_ios then
    Alcotest.failf "sharded k=%d: resume from phase %d kept no progress" k resumed_phase;
  let server_traces =
    Array.map (fun tr -> (Trace.length tr, Trace.digest tr)) (Storage.shard_traces s2)
  in
  Storage.close s2;
  {
    h_crashed = crashed;
    h_appends = appends;
    h_server_replays = per_server_replays replays;
    h_resumed_phase = resumed_phase;
    h_server_traces = server_traces;
  }

let test_sharded_kill_at_every_op_sweep () =
  let full_a = sharded_full_sort_ios keys_a in
  let full_b = sharded_full_sort_ios keys_b in
  Alcotest.(check int) "pair inputs cost the same full sort" full_a full_b;
  let schedule = Alcotest.(list (pair int int)) in
  let saw_server_replay = ref false in
  let rec go k =
    if k > 3000 then Alcotest.fail "sharded sweep never reached a crash-free run";
    let oa = sharded_sweep_point ~keys:keys_a ~full_ios:full_a k in
    let ob = sharded_sweep_point ~keys:keys_b ~full_ios:full_b k in
    Alcotest.(check bool) (Printf.sprintf "sharded k=%d: same fate" k) oa.h_crashed
      ob.h_crashed;
    Alcotest.check schedule
      (Printf.sprintf "sharded k=%d: same append schedule" k)
      oa.h_appends ob.h_appends;
    (* The per-server recovery view: each server is asked to rewrite the
       same inner-address sequence regardless of the data... *)
    Array.iteri
      (fun srv ra ->
        Alcotest.(check (list int))
          (Printf.sprintf "sharded k=%d: server %d same replay schedule" k srv)
          ra
          ob.h_server_replays.(srv))
      oa.h_server_replays;
    if Array.for_all (fun l -> l <> []) oa.h_server_replays then
      saw_server_replay := true;
    Alcotest.(check int)
      (Printf.sprintf "sharded k=%d: same resumed phase" k)
      oa.h_resumed_phase ob.h_resumed_phase;
    (* ...and serves a bit-identical trace for the resumed completion. *)
    Alcotest.(check (array (pair int int64)))
      (Printf.sprintf "sharded k=%d: same per-server completion traces" k)
      oa.h_server_traces ob.h_server_traces;
    if oa.h_crashed then go (k + 1)
  in
  go 0;
  Alcotest.(check bool) "some crash points replayed onto both servers" true
    !saw_server_replay

(* ---------------- ORAM checkpoint smoke ---------------- *)

let test_oram_rebuild_checkpoints () =
  with_temp_pair (fun _sp jp ->
      let spec = Storage.Journaled { inner = Storage.Mem; path = jp; durable = false } in
      let s = Storage.create ~trace_mode:Trace.Digest ~backend:spec ~block_size:4 () in
      Fun.protect
        ~finally:(fun () -> Storage.close s)
        (fun () ->
          let rng = Odex_crypto.Rng.create ~seed:13 in
          let o = Odex_oram.Hierarchical_oram.init ~m:16 ~rng s ~values:(Array.init 64 Fun.id) in
          for i = 0 to 63 do
            Alcotest.(check int) (Printf.sprintf "read %d" i) i
              (Odex_oram.Hierarchical_oram.read o i)
          done;
          Alcotest.(check bool) "rebuilds happened" true
            (Odex_oram.Hierarchical_oram.rebuilds o > 0);
          (* Every completed rebuild must have cleared its slot. *)
          Alcotest.(check (pair int int))
            "no rebuild left in flight" (0, 0)
            (Storage.checkpoint_state s ~owner:"oram-rebuild")))

(* ---------------- full-session resume: ORAM + columnsort ---------------- *)

(* One session, three checkpointing algorithms on one journaled store: a
   columnsort, then a hierarchical ORAM whose rebuilds nest an ext-sort.
   Killed after every backend op and driven to completion through the
   genuine recovery protocol — Storage resume + Hierarchical_oram.resume
   + re-running the sort against its own slot — this is the sweep the
   multi-slot table exists for: with the old single slot, the ORAM
   rebuild's checkpoint and its inner sort's (and the columnsort's)
   clobbered each other at every nesting boundary. *)

let mx_b = 2
let mx_m = 8
(* Columnsort plan at m = 8, b = 2: r = 8, s = 2 over 7 blocks, so the
   matrix's last block is virtual and the sort's only allocation is its
   8-block transposition scratch, re-attached from the cursor. *)
let cs_cells = 14
let cs_blocks = cs_cells / mx_b
let oram_n = 8
let oram_z = 4 (* stash period 4: 8 reads drive two rebuilds (upto 0, 1) *)
let oram_reads = 8
let oram_seed = 77

let cs_rank_keys =
  let ranks =
    let a = Array.init cs_cells (fun i -> i) in
    let rng = Odex_crypto.Rng.create ~seed:0xC01C011 in
    for i = cs_cells - 1 downto 1 do
      let j = Odex_crypto.Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  fun parity -> Array.map (fun r -> (2 * r) + parity) ranks

let oram_vals parity = Array.init oram_n (fun i -> 1000 + (2 * i) + parity)

type session_progress = { mutable cs_done : bool; mutable oram_started : bool }

(* Drive the whole session on [s]; raises [Backend.Crashed] at the kill
   point when [s] wraps a crashing inner. *)
let run_session s ~cs_keys ~vals ~progress =
  let a = Ext_array.of_cells s ~block_size:mx_b (Util.cells_of_keys cs_keys) in
  Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.columnsort ~m:mx_m a;
  progress.cs_done <- true;
  let rng = Odex_crypto.Rng.create ~seed:oram_seed in
  progress.oram_started <- true;
  let o =
    Odex_oram.Hierarchical_oram.init ~sorter:Odex_sortnet.Ext_sort.auto
      ~bucket_size:oram_z ~m:mx_m ~rng s ~values:vals
  in
  for i = 0 to oram_reads - 1 do
    let addr = i mod oram_n in
    let v = Odex_oram.Hierarchical_oram.read o addr in
    if v <> vals.(addr) then Alcotest.failf "session read %d: got %d, want %d" addr v vals.(addr)
  done

let session_full_ios ~cs_keys ~vals =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) @@ fun () ->
  let spec = Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false } in
  let s = Storage.create ~trace_mode:Trace.Digest ~backend:spec ~block_size:mx_b () in
  Fun.protect
    ~finally:(fun () -> Storage.close s)
    (fun () ->
      let before = Stats.total (Storage.stats s) in
      run_session s ~cs_keys ~vals ~progress:{ cs_done = false; oram_started = false };
      Stats.total (Storage.stats s) - before)

type session_obs = {
  s_crashed : bool;
  s_appends : (int * int) list;
  s_replays : (int * int) list;
  s_cs_phase : int;  (* columnsort slot found on reopen *)
  s_rebuild_phase : int;  (* oram-rebuild slot found on reopen *)
  s_session_live : bool;  (* oram-session slot found on reopen *)
  s_oram_boundary : int;  (* restored access counter, -1 = re-inited *)
  s_live_owners : int;  (* occupied table slots at the crash point *)
  s_resumed_ios : int;
}

let session_sweep_point ~cs_keys ~vals ~full_ios k =
  let sp, jp = temp_pair () in
  Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) @@ fun () ->
  let payload_size = 8 + Block.encoded_size mx_b in
  let progress = { cs_done = false; oram_started = false } in
  let crash_spec =
    Storage.Journaled
      {
        inner = Storage.Crashing { inner = Storage.File { path = sp }; ops = k };
        path = jp;
        durable = false;
      }
  in
  let s = Storage.create ~trace_mode:Trace.Digest ~backend:crash_spec ~block_size:mx_b () in
  let crashed, appends =
    match
      run_session s ~cs_keys ~vals ~progress;
      Storage.close s
    with
    | () -> (false, [])
    | exception Backend.Crashed ->
        let ap = Storage.journal_appends s in
        Storage.abandon s;
        (true, ap)
  in
  let scan_at_crash = scan_sealed sp ~payload_size in
  let resume_spec =
    Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false }
  in
  let s2 =
    Storage.create ~resume:true ~trace_mode:Trace.Digest ~backend:resume_spec
      ~block_size:mx_b ()
  in
  Fun.protect ~finally:(fun () -> Storage.close s2) @@ fun () ->
  let replays = Storage.journal_replay s2 in
  let live_owners = List.length (Storage.checkpoint_slots s2) in
  let cs_owner = Printf.sprintf "columnsort/0/%d" cs_blocks in
  let cs_phase, _ = Storage.checkpoint_state s2 ~owner:cs_owner in
  let rebuild_phase, _ = Storage.checkpoint_state s2 ~owner:"oram-rebuild" in
  let session_phase, _ = Storage.checkpoint_state s2 ~owner:"oram-session" in
  let before = Stats.total (Storage.stats s2) in
  (* --- columnsort recovery --- *)
  let a2 =
    if progress.cs_done then
      (* Finished before the crash: its clear committed the output. *)
      Ext_array.view s2 ~base:0 ~blocks:cs_blocks
    else if Storage.capacity s2 >= cs_blocks then begin
      let v = Ext_array.view s2 ~base:0 ~blocks:cs_blocks in
      if cs_phase = 0 then begin
        (* No committed phase: the input may be partially loaded —
           reload it in place before restarting. *)
        let cells = Util.cells_of_keys cs_keys in
        for i = 0 to cs_blocks - 1 do
          let blk = Block.make mx_b in
          for j = 0 to mx_b - 1 do
            let idx = (i * mx_b) + j in
            if idx < Array.length cells then blk.(j) <- cells.(idx)
          done;
          Storage.write (Ext_array.storage v) (Ext_array.addr v i) blk
        done
      end;
      Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.columnsort ~m:mx_m v;
      v
    end
    else begin
      let v = Ext_array.of_cells s2 ~block_size:mx_b (Util.cells_of_keys cs_keys) in
      Odex_sortnet.Ext_sort.run Odex_sortnet.Ext_sort.columnsort ~m:mx_m v;
      v
    end
  in
  (* --- ORAM recovery --- *)
  let o2, boundary =
    match
      Odex_oram.Hierarchical_oram.resume ~sorter:Odex_sortnet.Ext_sort.auto s2
    with
    | Some o -> (o, Odex_oram.Hierarchical_oram.accesses o)
    | None ->
        (* The session checkpoint never committed: start over. *)
        let rng = Odex_crypto.Rng.create ~seed:oram_seed in
        ( Odex_oram.Hierarchical_oram.init ~sorter:Odex_sortnet.Ext_sort.auto
            ~bucket_size:oram_z ~m:mx_m ~rng s2 ~values:vals,
          -1 )
  in
  if rebuild_phase > 0 then begin
    (* A rebuild was in flight: resume must have finished it — and
       cleared its slot — rather than restarting the ORAM. *)
    Alcotest.(check int)
      (Printf.sprintf "k=%d: in-flight rebuild finished, slot cleared" k)
      0
      (fst (Storage.checkpoint_state s2 ~owner:"oram-rebuild"));
    Alcotest.(check bool)
      (Printf.sprintf "k=%d: in-flight rebuild implies a live session" k)
      true (boundary >= 0)
  end;
  let start = max 0 boundary in
  for i = start to oram_reads - 1 do
    let addr = i mod oram_n in
    let v = Odex_oram.Hierarchical_oram.read o2 addr in
    if v <> vals.(addr) then
      Alcotest.failf "k=%d: resumed read %d: got %d, want %d" k addr v vals.(addr)
  done;
  let resumed_ios = Stats.total (Storage.stats s2) - before in
  (* --- verification --- *)
  let got = List.map (fun (it : Cell.item) -> it.key) (Ext_array.items a2) in
  let expect = List.sort compare (Array.to_list cs_keys) in
  if got <> expect then Alcotest.failf "k=%d: columnsort output wrong after recovery" k;
  for addr = 0 to oram_n - 1 do
    let v = Odex_oram.Hierarchical_oram.read o2 addr in
    if v <> vals.(addr) then
      Alcotest.failf "k=%d: post-recovery read %d: got %d, want %d" k addr v vals.(addr)
  done;
  (* Progress from any committed checkpoint must make the completion
     strictly cheaper than the full session. *)
  if (cs_phase > 0 || session_phase > 0) && resumed_ios >= full_ios then
    Alcotest.failf "k=%d: resumed completion cost %d I/Os, full session costs %d" k
      resumed_ios full_ios;
  check_no_nonce_reuse
    (Printf.sprintf "session k=%d" k)
    (scan_at_crash @ scan_sealed sp ~payload_size);
  {
    s_crashed = crashed;
    s_appends = appends;
    s_replays = replays;
    s_cs_phase = cs_phase;
    s_rebuild_phase = rebuild_phase;
    s_session_live = session_phase > 0;
    s_oram_boundary = boundary;
    s_live_owners = live_owners;
    s_resumed_ios = resumed_ios;
  }

let test_session_kill_at_every_op_sweep () =
  let keys_a = cs_rank_keys 0 and keys_b = cs_rank_keys 1 in
  let vals_a = oram_vals 0 and vals_b = oram_vals 1 in
  let full_a = session_full_ios ~cs_keys:keys_a ~vals:vals_a in
  let full_b = session_full_ios ~cs_keys:keys_b ~vals:vals_b in
  Alcotest.(check int) "pair sessions cost the same full run" full_a full_b;
  let schedule = Alcotest.(list (pair int int)) in
  let saw_rebuild_resume = ref false in
  let saw_coexisting_owners = ref 0 in
  let saw_mid_oram_boundary = ref false in
  let rec go k =
    if k > 20_000 then Alcotest.fail "session sweep never reached a crash-free run";
    let oa = session_sweep_point ~cs_keys:keys_a ~vals:vals_a ~full_ios:full_a k in
    let ob = session_sweep_point ~cs_keys:keys_b ~vals:vals_b ~full_ios:full_b k in
    (* Recovery obliviousness across the whole session: every observable
       of the crash-and-recover cycle is a function of shape alone. *)
    Alcotest.(check bool) (Printf.sprintf "k=%d: same fate" k) oa.s_crashed ob.s_crashed;
    Alcotest.check schedule (Printf.sprintf "k=%d: same append schedule" k) oa.s_appends
      ob.s_appends;
    Alcotest.check schedule (Printf.sprintf "k=%d: same replay schedule" k) oa.s_replays
      ob.s_replays;
    Alcotest.(check int)
      (Printf.sprintf "k=%d: same columnsort phase" k)
      oa.s_cs_phase ob.s_cs_phase;
    Alcotest.(check int)
      (Printf.sprintf "k=%d: same rebuild phase" k)
      oa.s_rebuild_phase ob.s_rebuild_phase;
    Alcotest.(check bool)
      (Printf.sprintf "k=%d: same session liveness" k)
      oa.s_session_live ob.s_session_live;
    Alcotest.(check int)
      (Printf.sprintf "k=%d: same ORAM boundary" k)
      oa.s_oram_boundary ob.s_oram_boundary;
    Alcotest.(check int)
      (Printf.sprintf "k=%d: same live owner count" k)
      oa.s_live_owners ob.s_live_owners;
    Alcotest.(check int)
      (Printf.sprintf "k=%d: same resumed I/O count" k)
      oa.s_resumed_ios ob.s_resumed_ios;
    if oa.s_rebuild_phase > 0 then saw_rebuild_resume := true;
    if oa.s_oram_boundary > 0 then saw_mid_oram_boundary := true;
    saw_coexisting_owners := max !saw_coexisting_owners oa.s_live_owners;
    if oa.s_crashed then go (k + 1)
  in
  go 0;
  Alcotest.(check bool) "some crash points caught a rebuild in flight" true
    !saw_rebuild_resume;
  Alcotest.(check bool) "some crash points resumed the ORAM mid-session" true
    !saw_mid_oram_boundary;
  Alcotest.(check bool)
    (Printf.sprintf "checkpoint table held coexisting owners (max seen %d)"
       !saw_coexisting_owners)
    true
    (!saw_coexisting_owners >= 2)

(* Cheap deterministic cousin of the sweep: crash at a handful of fixed
   points and make sure Hierarchical_oram.resume restores the exact
   session (counters, values) without restarting. *)
let test_oram_session_resume_points () =
  List.iter
    (fun k ->
      let sp, jp = temp_pair () in
      Fun.protect ~finally:(fun () -> cleanup [ sp; jp ]) @@ fun () ->
      let vals = oram_vals 0 in
      let crash_spec =
        Storage.Journaled
          {
            inner = Storage.Crashing { inner = Storage.File { path = sp }; ops = k };
            path = jp;
            durable = false;
          }
      in
      let s = Storage.create ~backend:crash_spec ~block_size:mx_b () in
      (match
         let rng = Odex_crypto.Rng.create ~seed:oram_seed in
         let o =
           Odex_oram.Hierarchical_oram.init ~sorter:Odex_sortnet.Ext_sort.bitonic_windowed
             ~bucket_size:oram_z ~m:mx_m ~rng s ~values:vals
         in
         for i = 0 to oram_reads - 1 do
           ignore (Odex_oram.Hierarchical_oram.read o (i mod oram_n))
         done;
         Storage.close s
       with
      | () -> ()
      | exception Backend.Crashed -> Storage.abandon s);
      let resume_spec =
        Storage.Journaled { inner = Storage.File { path = sp }; path = jp; durable = false }
      in
      let s2 = Storage.create ~resume:true ~backend:resume_spec ~block_size:mx_b () in
      Fun.protect ~finally:(fun () -> Storage.close s2) @@ fun () ->
      match
        Odex_oram.Hierarchical_oram.resume ~sorter:Odex_sortnet.Ext_sort.bitonic_windowed s2
      with
      | None -> () (* init never committed at this k *)
      | Some o2 ->
          Alcotest.(check bool)
            (Printf.sprintf "k=%d: boundary counter is a rebuild boundary" k)
            true
            (Odex_oram.Hierarchical_oram.accesses o2 mod oram_z = 0);
          for addr = 0 to oram_n - 1 do
            Alcotest.(check int)
              (Printf.sprintf "k=%d: resumed value %d" k addr)
              vals.(addr)
              (Odex_oram.Hierarchical_oram.read o2 addr)
          done)
    [ 5; 40; 120; 300; 700; 1500 ]

let suite =
  [
    ("append/commit bookkeeping", `Quick, test_append_commit_bookkeeping);
    ("auto-commit bounds the tail", `Quick, test_auto_commit_bounds_tail);
    journal_model_prop;
    ("replay heals a crashed apply", `Quick, test_replay_heals_crashed_apply);
    ("torn tail and corrupt record discarded", `Quick, test_torn_tail_discarded);
    ("checkpoint slot persistence", `Quick, test_checkpoint_slot_persistence);
    ("checkpoint validation", `Quick, test_checkpoint_validation);
    ("multi-owner checkpoints never clobber", `Quick, test_multi_owner_no_clobber);
    ("phase runner attaches and resumes", `Quick, test_phase_runner);
    checkpoint_no_alias_prop;
    ("retired journal engine refused", `Quick, test_retired_journal_engine_refused);
    ("v2 journal refused", `Quick, test_v2_journal_refused);
    ("foreign journal rejected", `Quick, test_foreign_journal_rejected);
    ("trace parity with journaling on and off", `Quick, test_trace_parity_journal_on_off);
    ("kill-at-every-op sweep", `Slow, test_kill_at_every_op_sweep);
    ("bucket sort kill-at-every-op sweep", `Slow, bucket_kill_at_every_op_sweep Sort);
    ("bucket permute kill-at-every-op sweep", `Slow, bucket_kill_at_every_op_sweep Permute);
    ("bucket sort journal on/off trace parity", `Quick,
      test_bucket_trace_parity_journal_on_off);
    ("sharded stripe kill-at-every-op sweep", `Slow, test_sharded_kill_at_every_op_sweep);
    ("ORAM rebuild checkpoints clear", `Quick, test_oram_rebuild_checkpoints);
    ("ORAM session resume points", `Quick, test_oram_session_resume_points);
    ("session kill-at-every-op sweep", `Slow, test_session_kill_at_every_op_sweep);
  ]
