exception Not_in_fiber
exception Stalled of string

(* The event queue is three queues, all ordered by [(time, seq)] —
   [seq] is a global schedule counter, so ties at one instant fire in
   FIFO order, exactly like the [Map.Make (float * int)] queue this
   replaces, whichever queue each tied event sits in:

   - [imm]: a plain FIFO for events scheduled at the current instant
     (resumptions, yields, spawns — roughly half of all traffic).
     [now] never decreases and [seq] only grows, so this queue is
     (time, seq)-sorted by construction and costs O(1) where a heap
     would pay its worst case (a new minimum sifts to the root and is
     popped right back).
   - [near]: a binary min-heap for events due less than [far_after]
     from when they are queued: CPU charges, wire serialization, frame
     delivery, retransmission timers.
   - [far]: the same kind of heap for everything due later.  It was
     split off when FRAGMENT armed a 2 s discard timer per sent message,
     so a busy run held thousands of long timers at once, and in one
     heap every short event would sift through all of them (the
     near/far split of hashed and hierarchical timing wheels, kept as
     small as one extra heap).  FRAGMENT now keeps one discard sweep
     and one prune timer per session, so [far] holds a few per session,
     but inc-mixed's callers queue about 110,000 far timers in one
     xkbench pass (up to 73 at once): [Select_replica.attempt] waits
     for each attempt with [Ivar.read_timeout] on its 0.5 s attempt
     timeout (109,006 of the 110,508 far pushes at seed 1, counting the
     ten set-up-only passes of [--seconds 0]; 694 more are due exactly
     2 s out and 808 at other delays).  INC itself arms no timer: it
     checks an entry's TTL when it looks the entry up.  The split still pays there: with
     [far_after = infinity] over the index heaps, 10 alternating pairs
     at [--seconds 10] read inc-mixed's [setup_s] 14% higher (10 of 10
     pairs) and its [heap_peak_mb] 0.8% higher (10 of 10), with calls/s
     1.4% lower (one heap faster in 3 of 10 pairs, inside the noise);
     null-closed did not move.

   Five ways queue an event, each by the same rule ([imm] at the current
   instant, else [near] or [far] by distance from the clock):

   - [spawn], a fresh fiber at the current instant;
   - [call_after d f x], [f x] as a fresh fiber [d] seconds from now,
     with no cancel handle: a wire delivery;
   - [timer d f x], [f x] as a fresh fiber [d] seconds from now, with a
     cancel handle: the x-kernel's [evSchedule(func, arg, time)];
     [after d] and [at time] are the same timer for a thunk, [at] at an
     absolute time, for a deadline worked out earlier ([after (time -.
     now)] can miss [time] by an ulp);
   - a fiber's own timed wait: [delay], [yield] or a [Server] hold.

   Both heaps are index heaps.  A heap position holds its event's key
   unboxed, the fire time in [times] and the seq in [seqs], and in
   [slot] the number of the slot of [evs] where the event itself sits.
   An event is stored into [evs] once, when it is pushed, and cleared
   once, when it is popped or purged; the slots not in use are a free
   stack kept in [slot] past the heap's size.  The sifts compare and
   move only ints and unboxed floats, so they take no write barrier.  A
   store of an event into a major-heap array goes through [caml_modify],
   and a young event adds a remembered-set entry: the event-array heap
   this replaced stored one per sift level, which filled the remembered
   set before the minor heap (271 forced minor collections in one
   null-closed xkbench pass at seed 1, none now).  The run loop fires
   the least of the three heads.

   Cancellation is lazy: [cancel] marks the event and the run loop
   discards corpses as they surface; once heap corpses pass a
   threshold both heaps are compacted in one O(n) pass, so [pending]
   counts only live events and long sweeps that cancel many retransmit
   timers cannot grow memory without bound. *)

(* An event does not store its own time: heap entries keep it in their
   heap's side [times] array, and an [imm] entry's time is by construction
   [now] from the moment it is enqueued until it fires (the loop always
   executes the global (time, seq) minimum and time never decreases, so
   the clock cannot pass a queued immediate).  Dropping the float field
   keeps the record box-free.

   Each fiber has one event record, its wait record; every timed wait,
   park and yield of that fiber reuses it, so a fiber switch allocates
   only its continuation, which the record's [Resume] holds until the
   fiber continues.  The run loop keeps the running fiber's record in
   [t.running], and three rules keep a record owned by exactly one
   fiber:

   - A timer event ([timer], [after], [at]) is never a wait record: it
     is the caller's cancel handle, which [cancel] must find [Fired] once
     it has run ([Event.t] is one).  Its [Timer] action, the one timer
     action, runs [f x] with [running = dummy], not the record of the
     fiber that ran before it (which may still be queued or parked), and
     the callback makes its own record at its first suspension.
   - A [Call] event, which [spawn] and [call_after] queue, is nobody's
     handle: neither returns it, and once it fires it is in no queue.
     So its fiber runs with [running] set to it, and its first
     suspension turns its action into [Resume] in place.  Every wire
     delivery starts a fiber this way, with one event and no closure.
     A timed read's timer (below) is a [Call] event that its reader's
     cell holds, to cancel it, but its callback never suspends, so it
     never becomes a record.
   - [run] restores [running] on exit, as it restores [due.bound]: a
     fiber that runs a nested [run] keeps its own record afterwards.

   A timed wait queues the record [Asleep] in the (time, seq) slot taken
   when the fiber suspended.  When that fires, the record takes a fresh
   [seq], turns [Live] and joins the back of the current instant's FIFO;
   when that fires, the fiber continues.  Fixing the continuation's
   position when the wake fires, not when the fiber suspended, keeps
   everything due at one instant in FIFO order, which is what makes runs
   deterministic.  Both halves count in [processed].

   Most waits are a lone CPU charge that nothing else can overtake, and
   two shortcuts skip the fiber switch for them without moving any event:

   - In place: [delay] returns at once, clock moved, when a [run] whose
     bound covers the wake is in progress, the instant FIFO is empty and
     no heap root is due at or before the wake.  The queued first half
     would then be the global (time, seq) minimum, and its requeued half
     would find an empty FIFO and no heap event at its instant, so the
     two would fire back to back.
   - Direct wake: a first half that fires with the FIFO empty and no heap
     root due at [now] continues the fiber itself, for the same reason.

   Either way the skipped halves still take their [seq] and count in
   [processed], and a wait that would cross [max_events] goes the queued
   way so the run loop raises [Stalled], not the fiber.  Any per-event
   view of a run (a digest of fired events, a permutation of one
   instant's events) must see and count both halves of these waits too,
   or its counts will not match [processed].

   A [Server] hold is a third kind of wait, between the two: the fiber
   queues behind other holders, but as one timed wait.  A FIFO server
   grants in arrival order, so a hold that finds it busy starts exactly
   at the previous holder's finish, [free_at], and ends [d] later; it
   waits straight to that finish, with no park, no hand-off and no
   fiber switch in between (2 events where a semaphore [p], [delay], [v]
   takes 3).  Its finish is the float sum that model gives, and the busy
   and wait totals add up in the same order.  Two things differ from
   that model on purpose:

   - A queued hold takes its [seq] when it arrives, not when the server
     is granted, so a tie with another event at its finish instant can
     resolve the other way.
   - [pending] counts a queued hold as an event, and [Server.wait]
     counts a hold's wait when it arrives, not when it is granted.

   A fiber blocked on a semaphore or an ivar is its record parked in
   that primitive's wait ring, outside the queues, in phase [Parked].
   Waking it is the same move as a timed wait's first half: a fresh
   [seq] and an append to [imm].  [t.parked] counts the parked records,
   so a run that has drained its queues can tell how many fibers will
   never continue; a fiber started with a name is listed in [t.named],
   so those of them that were can be reported by it.

   [Ivar.read_timeout] parks its record too, but the ring holds its
   timer, not the record: one [Call] event, queued at the deadline
   under the [seq] taken when the reader suspends, whose argument is a
   cell naming the record.  A fill wakes the ring entry in place, which
   cancels the timer and requeues the record; a timer that fires first
   requeues it the same way and leaves the ring entry behind, a no-op
   for a later fill.  Either way the record continues from the back of
   the instant in which it was settled, and the timer is the only event
   the wait adds. *)
type event = {
  mutable seq : int;
  mutable phase : phase;
  mutable action : action;
  owner : t;
}

and phase =
  | Live (* queued; runs [action] when it fires *)
  | Asleep (* a timed wait's first half: when it fires, it requeues *)
  | Cancelled (* still queued, discarded when it surfaces *)
  | Parked (* a fiber's record in a semaphore's or an ivar's wait ring *)
  | Fired (* out of the queues: ran or was purged *)

and action =
  | Timer : { f : 'a -> unit; x : 'a } -> action
      (* start [f x] as a fresh fiber: a timer's callback ([timer],
         [after], [at]), whose event is the caller's cancel handle, so
         never a wait record and never in a wait ring *)
  | Call : { f : 'a -> unit; x : 'a } -> action
      (* start [f x] as a fresh fiber; the event is nobody's handle, so
         it becomes that fiber's wait record.  In a wait ring, a timed
         reader's timer, whose [f x] runs in place when the ring wakes
         it. *)
  | Resume of { mutable k : (unit, unit) Effect.Deep.continuation }
      (* a fiber's wait record: continue [k] *)

(* A FIFO of events in a power-of-two array; head and tail grow without
   bound and are masked on access.  The current instant's queue and
   every semaphore's and ivar's waiters are rings. *)
and ring = {
  mutable slots : event array;
  mutable head : int;
  mutable tail : int;
}

(* An index heap: a binary min-heap over positions [0, size), keyed
   [(times.(i), seqs.(i))], whose position [i] names the event by its
   slot [slot.(i)] in [evs].  [slot] is a permutation of [0, capacity):
   the entries past [size] are the free slots, a stack whose top is
   [slot.(size)]. *)
and heap = {
  mutable times : float array; (* position -> fire time *)
  mutable seqs : int array; (* position -> seq *)
  mutable slot : int array; (* position -> slot in [evs] *)
  mutable evs : event array; (* slot -> event, [dummy] when free *)
  mutable size : int;
}

(* All-float, so the stores are unboxed: the clock, the fire time of the
   event about to be queued, and the bound of the [run] in progress
   ([neg_infinity] when none is).  A clock kept in [t] itself would box
   every new time it stores. *)
and due = { mutable now : float; mutable at : float; mutable bound : float }

(* A fiber started with a name: its record, to tell whether it is
   parked, and whether it is a daemon, which may be.  A fiber that ends
   stays listed; its record is never parked again.  Only a few fibers
   per world have names. *)
and named = { fb_name : string; fb_daemon : bool; fb_record : event }

and t = {
  near : heap;
  far : heap;
  imm : ring;
  mutable live : int; (* queued events not yet cancelled *)
  mutable next_seq : int;
  mutable processed : int;
  max_events : int;
  sim_rng : Random.State.t;
  dummy : event; (* fills empty queue slots, so popped events get freed *)
  due : due;
  mutable park_in : ring; (* where the next [Park]ed fiber waits *)
  mutable running : event; (* the running fiber's record, or [dummy] *)
  mutable parked : int; (* records in phase [Parked] *)
  mutable named : named list; (* fibers started with a name, newest first *)
  mutable handler : unit Effect.Deep.effect_handler;
}

(* A span of virtual time in a record its caller owns and rewrites, so
   a computed span reaches [Sim] unboxed. *)
type duration = { mutable seconds : float }

let now t = t.due.now
let pending t = t.live
let processed t = t.processed
let rng t = t.sim_rng

(* --- heap primitives --- *)

(* The sifts move keys and slot numbers, never an event (see the
   header): each level copies one neighbour's [(time, seq, slot)] into
   the hole, and the moving key is stored once, at its final position.
   Both are loops over a key read from the arrays, since a float passed
   to a function or to a recursive call would be boxed. *)

(* Sift the key at position [i0] up towards the root. *)
let sift_up h i0 =
  let times = h.times and seqs = h.seqs and slot = h.slot in
  let tk = times.(i0) and sk = seqs.(i0) and xk = slot.(i0) in
  let i = ref i0 and rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = times.(p) in
    if tk < tp || (tk = tp && sk < seqs.(p)) then begin
      times.(!i) <- tp;
      seqs.(!i) <- seqs.(p);
      slot.(!i) <- slot.(p);
      i := p
    end
    else rising := false
  done;
  times.(!i) <- tk;
  seqs.(!i) <- sk;
  slot.(!i) <- xk

(* Sift the key at position [k] down from the hole at [i0], within the
   first [n] positions.  [k] is [i0] itself, or [n] when the last entry
   refills a popped root. *)
let sift_down h n i0 k =
  let times = h.times and seqs = h.seqs and slot = h.slot in
  let tk = times.(k) and sk = seqs.(k) and xk = slot.(k) in
  let i = ref i0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let c =
        if
          l + 1 < n
          && (times.(l + 1) < times.(l)
             || (times.(l + 1) = times.(l) && seqs.(l + 1) < seqs.(l)))
        then l + 1
        else l
      in
      let tc = times.(c) in
      if tc < tk || (tc = tk && seqs.(c) < sk) then begin
        times.(!i) <- tc;
        seqs.(!i) <- seqs.(c);
        slot.(!i) <- slot.(c);
        i := c
      end
      else sinking := false
    end
  done;
  times.(!i) <- tk;
  seqs.(!i) <- sk;
  slot.(!i) <- xk

let heap () = { times = [||]; seqs = [||]; slot = [||]; evs = [||]; size = 0 }

(* The event at the root. *)
let root h = h.evs.(h.slot.(0))

(* Push [ev] into [h] keyed at [(t.due.at, ev.seq)], in the free slot
   on top of the stack.  The time is read here, not passed in: a float
   argument would be boxed on every push. *)
let heap_push t h ev =
  let n = h.size in
  if n = Array.length h.evs then begin
    let cap = max 64 (2 * n) in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    h.times <- grow h.times infinity;
    h.seqs <- grow h.seqs 0;
    h.evs <- grow h.evs t.dummy;
    (* Every slot is taken, so the new ones are the free stack. *)
    let slot = Array.init cap Fun.id in
    Array.blit h.slot 0 slot 0 n;
    h.slot <- slot
  end;
  h.evs.(h.slot.(n)) <- ev;
  h.times.(n) <- t.due.at;
  h.seqs.(n) <- ev.seq;
  h.size <- n + 1;
  sift_up h n

(* Pop the root and return its slot to the free stack.  The caller
   decides whether it was live. *)
let heap_pop t h =
  let s = h.slot.(0) in
  let ev = h.evs.(s) in
  h.evs.(s) <- t.dummy;
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down h n 0 n;
  h.slot.(n) <- s;
  ev

(* Compact away cancelled events and re-heapify (Floyd's O(n) pass).
   A live entry swaps places with the first dead one, so the dead slots
   end up past the new size, on the free stack.  Heap order depends only
   on the (time, seq) key, so rebuilding cannot perturb the firing
   schedule. *)
let purge t h =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    let s = h.slot.(i) in
    let ev = h.evs.(s) in
    if ev.phase = Cancelled then begin
      ev.phase <- Fired;
      h.evs.(s) <- t.dummy
    end
    else begin
      let k = !kept in
      h.slot.(i) <- h.slot.(k);
      h.slot.(k) <- s;
      h.times.(k) <- h.times.(i);
      h.seqs.(k) <- h.seqs.(i);
      kept := k + 1
    end
  done;
  h.size <- !kept;
  for i = (!kept / 2) - 1 downto 0 do
    sift_down h !kept i i
  done

(* The heap whose root fires first, [near] when both are empty. *)
let next_heap t =
  let n = t.near and f = t.far in
  if f.size = 0 then n
  else if n.size = 0 then f
  else
    let tn = n.times.(0) and tf = f.times.(0) in
    if tf < tn || (tf = tn && f.seqs.(0) < n.seqs.(0)) then f else n

(* --- ring primitives --- *)

let ring () = { slots = [||]; head = 0; tail = 0 }
let ring_length r = r.tail - r.head

let ring_push t r ev =
  let cap = Array.length r.slots in
  let len = r.tail - r.head in
  if len = cap then begin
    let grown = Array.make (max 1 (2 * cap)) t.dummy in
    for i = 0 to len - 1 do
      grown.(i) <- r.slots.((r.head + i) land (cap - 1))
    done;
    r.slots <- grown;
    r.head <- 0;
    r.tail <- len
  end;
  r.slots.(r.tail land (Array.length r.slots - 1)) <- ev;
  r.tail <- r.tail + 1

let ring_peek r = r.slots.(r.head land (Array.length r.slots - 1))

let ring_pop t r =
  let i = r.head land (Array.length r.slots - 1) in
  let ev = r.slots.(i) in
  r.slots.(i) <- t.dummy;
  r.head <- r.head + 1;
  ev

(* Compacting is O(n), so only bother once the corpses both dominate
   the heaps and number enough to matter.  Corpses in [imm] are at the
   current instant and drain on their own within a few pops. *)
let purge_floor = 64

let maybe_purge t =
  let queued = t.near.size + t.far.size in
  let dead = queued + ring_length t.imm - t.live in
  if dead > purge_floor && 2 * dead > queued then begin
    purge t t.near;
    purge t t.far
  end

(* An event due at least this long after it is queued goes to [far]. *)
let far_after = 0.5

let take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Nothing queued fires at or before [t.due.at]: the instant FIFO is
   empty and both heap roots lie later.  A corpse at a root counts as
   due, which only sends a wait the queued way.  The times are read here,
   not passed in: a float argument would be boxed on every wait. *)
let nothing_due t =
  ring_length t.imm = 0
  && (t.near.size = 0 || t.near.times.(0) > t.due.at)
  && (t.far.size = 0 || t.far.times.(0) > t.due.at)

(* Queue [ev] due at [t.due.at] under a fresh [seq].  Scheduling in the
   past never happens (the entry points add a non-negative delay to
   [now] or refuse a time behind it), so [at = now] is the instant
   case. *)
let enqueue t ev =
  ev.seq <- take_seq t;
  let at = t.due.at in
  if at = t.due.now then ring_push t t.imm ev
  else if at -. t.due.now < far_after then heap_push t t.near ev
  else heap_push t t.far ev;
  t.live <- t.live + 1

let schedule t action =
  let ev = { seq = -1; phase = Live; action; owner = t } in
  enqueue t ev;
  ev

let cancel ev =
  match ev.phase with
  | Live ->
      ev.phase <- Cancelled;
      let t = ev.owner in
      t.live <- t.live - 1;
      maybe_purge t;
      true
  | Asleep | Cancelled | Parked | Fired -> false

(* Queue [ev], taken off a wait ring or a timed wait's first half, at
   the back of the current instant. *)
let requeue ev =
  let t = ev.owner in
  ev.seq <- take_seq t;
  ev.phase <- Live;
  ring_push t t.imm ev;
  t.live <- t.live + 1

(* Wake the waiter at the head of [r]: a parked fiber continues from the
   back of the current instant, a timed reader's timer settles it in
   place. *)
let wake t r =
  let ev = ring_pop t r in
  match ev.action with
  | Resume _ ->
      t.parked <- t.parked - 1;
      requeue ev
  | Call { f; x } -> f x
  | Timer _ -> assert false

(* A timed read's cell: the reader's record, parked until [settle]
   runs, and the timer that is also the reader's ring entry.  [waiting]
   is cleared by whichever of the fill and the timer comes first. *)
type timed = { reader : event; timer : event; mutable waiting : bool }

let settle c =
  if c.waiting then begin
    c.waiting <- false;
    ignore (cancel c.timer);
    let t = c.reader.owner in
    t.parked <- t.parked - 1;
    requeue c.reader
  end

(* Three ways to suspend, all with a handler branch built once per
   simulator, none with a payload, so performing one allocates only the
   continuation once the fiber has its record:

   - [Delay], a timed wait due at [t.due.at];
   - [Park], which waits in the ring [t.park_in];
   - [Park_timed], which waits in [t.park_in] and at most until
     [t.due.at]: [Ivar.read_timeout].  Its branch builds the cell and
     the timer, the only words it adds. *)
type _ Effect.t += Delay : unit Effect.t
type _ Effect.t += Park : unit Effect.t
type _ Effect.t += Park_timed : unit Effect.t

(* The suspending fiber's record, now holding [k]: the one it has, the
   [Call] event that started it, or a fresh one. *)
let record t k =
  let ev = t.running in
  match ev.action with
  | Resume r ->
      r.k <- k;
      ev
  | Call _ ->
      ev.action <- Resume { k };
      ev
  | Timer _ -> { seq = -1; phase = Fired; action = Resume { k }; owner = t }

let make_handler t =
  let on_delay =
    Some
      (fun k ->
        let ev = record t k in
        ev.phase <- Asleep;
        enqueue t ev)
  in
  let park_record k =
    let ev = record t k in
    ev.phase <- Parked;
    t.parked <- t.parked + 1;
    ev
  in
  let on_park = Some (fun k -> ring_push t t.park_in (park_record k)) in
  let on_park_timed =
    Some
      (fun k ->
        let reader = park_record k in
        let rec c = { reader; timer; waiting = true }
        and timer =
          {
            seq = -1;
            phase = Live;
            action = Call { f = settle; x = c };
            owner = t;
          }
        in
        enqueue t timer;
        ring_push t t.park_in timer)
  in
  {
    Effect.Deep.effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Delay -> on_delay
        | Park -> on_park
        | Park_timed -> on_park_timed
        | _ -> None);
  }

let create ?(max_events = 10_000_000) ?(seed = 42) () =
  let due = { now = 0.; at = 0.; bound = neg_infinity } in
  let rec dummy =
    { seq = -1; phase = Fired; action = Timer { f = ignore; x = () }; owner = t }
  and t =
    {
      near = heap ();
      far = heap ();
      imm = ring ();
      live = 0;
      next_seq = 0;
      processed = 0;
      max_events;
      sim_rng = Random.State.make [| seed |];
      dummy;
      due;
      park_in = ring ();
      running = dummy;
      parked = 0;
      named = [];
      handler = { Effect.Deep.effc = (fun _ -> None) };
    }
  in
  t.handler <- make_handler t;
  t

let perform_delay () =
  try Effect.perform Delay with Effect.Unhandled Delay -> raise Not_in_fiber

(* Block the calling fiber in [r] until a [wake] reaches it.  [r] must
   belong to a primitive of [t], the simulator running the fiber. *)
let park t r =
  t.park_in <- r;
  try Effect.perform Park with Effect.Unhandled Park -> raise Not_in_fiber

(* Block the calling fiber in [r] until a [wake] reaches it or the clock
   reaches [t.due.at], whichever comes first. *)
let park_timed t r =
  t.park_in <- r;
  try Effect.perform Park_timed
  with Effect.Unhandled Park_timed -> raise Not_in_fiber

(* Wait until [t.due.at], which lies ahead of the clock.  A wait that
   would fire next and resume next runs in place: the fiber keeps
   running, and the clock, [seq] and [processed] move exactly as the two
   queued halves would have moved them. *)
let wait_due t =
  let due = t.due in
  if due.bound >= due.at && t.processed + 2 <= t.max_events && nothing_due t
  then begin
    t.next_seq <- t.next_seq + 2;
    t.processed <- t.processed + 2;
    due.now <- due.at
  end
  else perform_delay ()

let delay t d =
  if not (d >= 0.) then invalid_arg "Sim.delay: negative or NaN delay";
  if d = 0. then ()
  else begin
    t.due.at <- t.due.now +. d;
    wait_due t
  end

let yield t =
  t.due.at <- t.due.now;
  perform_delay ()

let timer t d f x =
  let s = d.seconds in
  if not (s >= 0.) then invalid_arg "Sim.timer: negative or NaN delay";
  t.due.at <- t.due.now +. s;
  schedule t (Timer { f; x })

(* A thunk is a timer whose function applies its argument. *)
let apply f = f ()

let after t d f =
  if not (d >= 0.) then invalid_arg "Sim.after: negative or NaN delay";
  t.due.at <- t.due.now +. d;
  schedule t (Timer { f = apply; x = f })

let at t time f =
  if not (time >= t.due.now) then invalid_arg "Sim.at: time behind the clock or NaN";
  t.due.at <- time;
  schedule t (Timer { f = apply; x = f })

let spent t = t.dummy

(* Queue [f x] as a fresh fiber due at [t.due.at]. *)
let call t f x = ignore (schedule t (Call { f; x }))

let call_after t d f x =
  let s = d.seconds in
  if not (s >= 0.) then invalid_arg "Sim.call_after: negative or NaN delay";
  t.due.at <- t.due.now +. s;
  call t f x

(* Preserve the fiber's name in the backtrace-less sim world. *)
let escaped name =
  failwith
    (Printf.sprintf "fiber %s: blocking operation escaped its fiber" name)

let run_anon f = try f () with Not_in_fiber -> escaped "<anon>"

(* A named fiber is listed with the event that starts it, which becomes
   its record at its first suspension. *)
let start_named t ~daemon name f =
  t.due.at <- t.due.now;
  let ev =
    schedule t
      (Call { f = (fun f -> try f () with Not_in_fiber -> escaped name); x = f })
  in
  t.named <- { fb_name = name; fb_daemon = daemon; fb_record = ev } :: t.named

let spawn t ?name f =
  match name with
  | None ->
      t.due.at <- t.due.now;
      call t run_anon f
  | Some name -> start_named t ~daemon:false name f

let daemon t ~name f = start_named t ~daemon:true name f

let hung t =
  let parked fb = fb.fb_record.phase = Parked in
  let named = List.rev (List.filter parked t.named) in
  List.filter_map
    (fun fb -> if fb.fb_daemon then None else Some fb.fb_name)
    named
  @ List.init (t.parked - List.length named) (fun _ -> "<anon>")

let run ?until t =
  let execute ev =
    t.live <- t.live - 1;
    t.processed <- t.processed + 1;
    if t.processed > t.max_events then
      raise
        (Stalled (Printf.sprintf "more than %d events processed" t.max_events));
    match (ev.phase, ev.action) with
    | Asleep, Resume r ->
        (* A first half whose requeued half would fire next continues
           the fiber now and counts that half. *)
        t.due.at <- t.due.now;
        if t.processed < t.max_events && nothing_due t then begin
          t.next_seq <- t.next_seq + 1;
          t.processed <- t.processed + 1;
          ev.phase <- Fired;
          t.running <- ev;
          Effect.Deep.continue r.k ()
        end
        else requeue ev
    | Asleep, (Timer _ | Call _) -> requeue ev
    | _, Timer { f; x } ->
        ev.phase <- Fired;
        t.running <- t.dummy;
        Effect.Deep.try_with f x t.handler
    | _, Call { f; x } ->
        ev.phase <- Fired;
        t.running <- ev;
        Effect.Deep.try_with f x t.handler
    | _, Resume r ->
        ev.phase <- Fired;
        t.running <- ev;
        Effect.Deep.continue r.k ()
  in
  let limit = match until with Some u -> u | None -> infinity in
  (* Corpses are dropped without consulting [until] — they were already
     discounted from [live] when cancelled.  Every event fired has a
     time of at most [limit], so the clock never passes it; a bound
     behind the clock fires nothing, since the clock must not run back. *)
  let rec loop () =
    let h = next_heap t in
    if h.size > 0 && (root h).phase = Cancelled then begin
      (heap_pop t h).phase <- Fired;
      loop ()
    end
    else if ring_length t.imm > 0 then begin
      let qe = ring_peek t.imm in
      if qe.phase = Cancelled then begin
        (ring_pop t t.imm).phase <- Fired;
        loop ()
      end
      else begin
        (* Both heads are live; fire the lesser (time, seq).  A queued
           immediate's time is [now] by the invariant above, so a heap
           can win only on an equal time with a smaller seq (the clock
           never passes a queued immediate). *)
        if h.size > 0 && h.times.(0) = t.due.now && h.seqs.(0) < qe.seq then
          execute (heap_pop t h)
        else execute (ring_pop t t.imm);
        loop ()
      end
    end
    else if h.size > 0 then
      if h.times.(0) > limit then t.due.now <- limit
      else begin
        t.due.now <- h.times.(0);
        execute (heap_pop t h);
        loop ()
      end
  in
  if limit >= t.due.now then begin
    let outer = t.due.bound and running = t.running in
    t.due.bound <- limit;
    Fun.protect
      ~finally:(fun () ->
        t.due.bound <- outer;
        t.running <- running)
      loop
  end

module Semaphore = struct
  type sem = { sim : t; mutable cnt : int; blocked : ring }

  let create sim cnt =
    if cnt < 0 then invalid_arg "Semaphore.create";
    { sim; cnt; blocked = ring () }

  let p s = if s.cnt > 0 then s.cnt <- s.cnt - 1 else park s.sim s.blocked

  let v s =
    if ring_length s.blocked > 0 then wake s.sim s.blocked
    else s.cnt <- s.cnt + 1
end

module Server = struct
  (* All-float, so the updates are unboxed stores. *)
  type clock = {
    mutable free_at : float; (* when the last hold in flight ends *)
    mutable busy : float;
    mutable wait : float;
  }

  type server = { sim : t; clock : clock; mutable holds : int }

  let create sim =
    { sim; clock = { free_at = 0.; busy = 0.; wait = 0. }; holds = 0 }

  (* One timed wait to the hold's finish.  A FIFO server grants in
     arrival order, so a hold that finds the server busy starts exactly
     when the holds ahead of it end, at [free_at], and its finish is
     known on arrival.  The arithmetic stays here: a finish time passed
     to [Sim] from outside would be boxed, and so would the duration,
     which is why it is read from the caller's record, once, before
     the wait. *)
  let hold s dur =
    let d = dur.seconds in
    if not (d >= 0.) then invalid_arg "Sim.Server.hold: negative or NaN time";
    let t = s.sim and c = s.clock in
    s.holds <- s.holds + 1;
    if c.free_at <= t.due.now then begin
      c.free_at <- t.due.now +. d;
      if d > 0. then begin
        t.due.at <- c.free_at;
        wait_due t
      end
    end
    else begin
      c.wait <- c.wait +. (c.free_at -. t.due.now);
      c.free_at <- c.free_at +. d;
      t.due.at <- c.free_at;
      wait_due t
    end;
    c.busy <- c.busy +. d;
    s.holds <- s.holds - 1

  let busy s = s.clock.busy
  let wait s = s.clock.wait

  let reset s =
    s.clock.busy <- 0.;
    s.clock.wait <- 0.

  let holds s = s.holds
end

module Ivar = struct
  type 'a state = Unset of ring | Set of 'a
  type 'a ivar = { iv_sim : t; mutable state : 'a state }

  let create sim = { iv_sim = sim; state = Unset (ring ()) }

  let fill iv x =
    match iv.state with
    | Set _ -> invalid_arg "Ivar.fill: already filled"
    | Unset waiters ->
        iv.state <- Set x;
        while ring_length waiters > 0 do
          wake iv.iv_sim waiters
        done

  let is_filled iv = match iv.state with Set _ -> true | Unset _ -> false

  let read iv =
    match iv.state with
    | Set x -> x
    | Unset waiters -> (
        park iv.iv_sim waiters;
        match iv.state with Set x -> x | Unset _ -> assert false)

  (* The reader's timer waits in the ring, so a fill wakes it in arrival
     order among plain readers (see the header). *)
  let read_timeout iv d =
    match iv.state with
    | Set x -> Some x
    | Unset waiters -> (
        let sim = iv.iv_sim and s = d.seconds in
        if not (s >= 0.) then
          invalid_arg "Sim.Ivar.read_timeout: negative or NaN delay";
        sim.due.at <- sim.due.now +. s;
        park_timed sim waiters;
        match iv.state with Set x -> Some x | Unset _ -> None)
end
