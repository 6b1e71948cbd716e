type t = {
  storage : Storage.t;
  owner : string;
  scratch : Ext_array.t;
  committed : int;  (** phases the slot records as done *)
  mutable next : int;  (** number of the next phase *)
}

(* Without a journal, [checkpoint_state] reads (0, 0) and the checkpoint
   calls are no-ops, so an unjournaled run allocates fresh and runs every
   phase. A slot whose scratch no longer fits the store (a truncated
   store, a foreign cursor) is not trusted: the run restarts. *)
let start storage ~owner ~scratch =
  let phase, cursor = Storage.checkpoint_state storage ~owner in
  let scratch, committed =
    if phase > 0 && cursor >= 0 && cursor + scratch <= Storage.capacity storage then
      (Ext_array.view storage ~base:cursor ~blocks:scratch, phase)
    else (Ext_array.create storage ~blocks:scratch, 0)
  in
  { storage; owner; scratch; committed; next = 1 }

let scratch t = t.scratch

let run t f =
  let phase = t.next in
  t.next <- phase + 1;
  if phase > t.committed then begin
    f ();
    Storage.checkpoint t.storage ~owner:t.owner ~phase ~cursor:(Ext_array.base t.scratch)
  end

let finish t = Storage.checkpoint_clear t.storage ~owner:t.owner
