open Xkernel

let time_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.after sim 0.3 (fun () -> log := 3 :: !log));
  ignore (Sim.after sim 0.1 (fun () -> log := 1 :: !log));
  ignore (Sim.after sim 0.2 (fun () -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "fires in time order" [ 1; 2; 3 ] (List.rev !log)

let fifo_at_same_time () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.after sim 0.1 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO among equals" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.spawn sim (fun () ->
      seen := Sim.now sim :: !seen;
      Sim.delay sim 1.5;
      seen := Sim.now sim :: !seen;
      Sim.delay sim 0.5;
      seen := Sim.now sim :: !seen);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "timestamps" [ 0.; 1.5; 2.0 ] (List.rev !seen)

let cancel_timer () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.after sim 1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "cancel succeeds" true (Sim.cancel ev);
  Alcotest.(check bool) "second cancel fails" false (Sim.cancel ev);
  Sim.run sim;
  Alcotest.(check bool) "did not fire" false !fired

(* The clock reaches the bound only when a live event is left queued
   past it.  When the queues drain first, or hold only cancelled events,
   it stays at the last event fired, and a timer armed next counts from
   there. *)
let run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.after sim 1.0 (fun () -> incr fired));
  ignore (Sim.after sim 3.0 (fun () -> incr fired));
  Sim.run ~until:2.0 sim;
  Tutil.check_int "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock at bound" 2.0 (Sim.now sim);
  Sim.run sim;
  Tutil.check_int "remaining fires" 2 !fired;
  ignore (Sim.after sim 1.0 (fun () -> incr fired));
  ignore (Sim.cancel (Sim.after sim 20.0 (fun () -> incr fired)));
  Sim.run ~until:10.0 sim;
  Tutil.check_int "drained" 3 !fired;
  Alcotest.(check (float 0.)) "clock at last event" 4.0 (Sim.now sim);
  let at = ref nan in
  ignore (Sim.after sim 1.0 (fun () -> at := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 0.)) "armed from last event" 5.0 !at

(* A bound behind the clock fires nothing and leaves the clock alone:
   the clock never runs back, so a timer armed afterwards cannot fire
   before an instant that has already passed. *)
let until_behind_clock () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s = log := (s, Sim.now sim) :: !log in
  ignore (Sim.after sim 3.0 (fun () -> note "late"));
  Sim.run ~until:2.0 sim;
  Sim.spawn sim (fun () -> note "spawned");
  Sim.run ~until:1.0 sim;
  Alcotest.(check (float 0.)) "clock kept" 2.0 (Sim.now sim);
  Tutil.check_int "nothing fired" 0 (List.length !log);
  ignore (Sim.after sim 0.5 (fun () -> note "armed"));
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.))))
    "fire times"
    [ ("spawned", 2.0); ("armed", 2.5); ("late", 3.0) ]
    (List.rev !log)

let not_in_fiber () =
  let sim = Sim.create () in
  Alcotest.check_raises "delay outside fiber" Sim.Not_in_fiber (fun () ->
      Sim.delay sim 1.0)

let stall_guard () =
  let sim = Sim.create ~max_events:100 () in
  let rec forever () =
    ignore (Sim.after sim 0.001 forever)
  in
  forever ();
  Alcotest.(check bool) "raises Stalled" true
    (match Sim.run sim with
    | () -> false
    | exception Sim.Stalled _ -> true)

(* A wait whose wake lies past [run ~until] stays queued: the run stops
   at its bound with the fiber asleep, and the next run resumes the fiber
   at its own time.  A wake exactly at the bound still fires. *)
let wait_past_until () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s = log := (s, Sim.now sim) :: !log in
  Sim.spawn sim (fun () ->
      note "start";
      Sim.delay sim 1.0;
      note "a";
      Sim.delay sim 1.0;
      note "b";
      Sim.delay sim 0.5;
      note "c");
  let check what expect =
    Alcotest.(check (list (pair string (float 0.)))) what expect (List.rev !log)
  in
  Sim.run ~until:1.5 sim;
  check "first run" [ ("start", 0.); ("a", 1.0) ];
  Alcotest.(check (float 0.)) "clock at bound" 1.5 (Sim.now sim);
  Tutil.check_int "fiber asleep" 1 (Sim.pending sim);
  Sim.run ~until:2.0 sim;
  check "wake at the bound" [ ("start", 0.); ("a", 1.0); ("b", 2.0) ];
  Tutil.check_int "still asleep" 1 (Sim.pending sim);
  Sim.run sim;
  check "resumed at its own time"
    [ ("start", 0.); ("a", 1.0); ("b", 2.0); ("c", 2.5) ];
  Tutil.check_int "spawn plus two halves per wait" 7 (Sim.processed sim)

(* [Stalled] comes from the run loop, never from inside a fiber, so a
   fiber that catches everything around its waits cannot swallow it.
   The loop raises on the first event past [max_events], so [processed]
   reads one more than the limit whichever half of a wait that is. *)
let stall_not_swallowed () =
  List.iter
    (fun max_events ->
      let sim = Sim.create ~max_events () in
      let swallowed = ref 0 in
      Sim.spawn sim (fun () ->
          while !swallowed = 0 do
            try Sim.delay sim 0.001 with _ -> incr swallowed
          done);
      Alcotest.(check bool) "raises Stalled" true
        (match Sim.run sim with
        | () -> false
        | exception Sim.Stalled _ -> true);
      Tutil.check_int "nothing swallowed" 0 !swallowed;
      Tutil.check_int "processed" (max_events + 1) (Sim.processed sim))
    [ 100; 101 ]

(* Outside a fiber [Sim.delay] raises [Not_in_fiber] whatever runs came
   before: none, one that returned, or one that raised. *)
let delay_outside_runs () =
  let sim = Sim.create () in
  let outside what =
    Alcotest.check_raises what Sim.Not_in_fiber (fun () -> Sim.delay sim 1.0)
  in
  outside "before any run";
  Sim.spawn sim (fun () -> Sim.delay sim 1.0);
  Sim.run sim;
  outside "after a run returned";
  Sim.spawn sim (fun () -> Sim.delay sim 1.0);
  Sim.run ~until:(Sim.now sim +. 0.5) sim;
  outside "after a run stopped at its bound";
  Sim.run sim;
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      failwith "boom");
  Alcotest.check_raises "fiber failure" (Failure "boom") (fun () -> Sim.run sim);
  outside "after a run that raised"

let semaphore_mutex () =
  let sim = Sim.create () in
  let sem = Sim.Semaphore.create sim 1 in
  let log = ref [] in
  let worker i =
    Sim.spawn sim (fun () ->
        Sim.Semaphore.p sem;
        log := (i, Sim.now sim) :: !log;
        Sim.delay sim 1.0;
        Sim.Semaphore.v sem)
  in
  worker 1;
  worker 2;
  worker 3;
  Sim.run sim;
  let order = List.rev_map fst !log in
  Alcotest.(check (list int)) "FIFO entry order" [ 1; 2; 3 ] order;
  let times = List.rev_map snd !log in
  Alcotest.(check (list (float 1e-9))) "serialized" [ 0.; 1.; 2. ] times

(* [Sim.Semaphore.p sem] from the calling fiber, and whether it got
   through without blocking: a fiber spawned just before it runs first
   when it blocks. *)
let p_without_blocking sim sem =
  let overtaken = ref false in
  Sim.spawn sim (fun () -> overtaken := true);
  Sim.Semaphore.p sem;
  not !overtaken

(* A fiber that takes [sem] once, setting [got] when it gets through. *)
let taker sim sem got =
  Sim.spawn sim (fun () ->
      Sim.Semaphore.p sem;
      got := true)

let semaphore_counts () =
  let sim = Sim.create () in
  let sem = Sim.Semaphore.create sim 2 in
  let finished = ref false and extra = ref false in
  Sim.spawn sim (fun () ->
      let check what = Alcotest.(check bool) what true in
      check "initial count 2: first p" (p_without_blocking sim sem);
      check "initial count 2: second p" (p_without_blocking sim sem);
      ignore (Sim.after sim 1.0 (fun () -> Sim.Semaphore.v sem));
      check "drained: p blocks" (not (p_without_blocking sim sem));
      Alcotest.(check (float 0.)) "until the v" 1.0 (Sim.now sim);
      Sim.Semaphore.v sem;
      check "restored to 1: p" (p_without_blocking sim sem);
      taker sim sem extra;
      finished := true);
  Sim.run sim;
  Alcotest.(check bool) "ran to the end" true !finished;
  Alcotest.(check bool) "and the count is 0 again" false !extra

let semaphore_waiters () =
  let sim = Sim.create () in
  let sem = Sim.Semaphore.create sim 0 in
  let got = ref false and late = ref false in
  taker sim sem got;
  ignore
    (Sim.after sim 1.0 (fun () ->
         Alcotest.(check bool) "one waiter, blocked" false !got;
         Sim.Semaphore.v sem;
         (* The v went to the waiter, not to the count. *)
         taker sim sem late));
  Sim.run sim;
  Alcotest.(check bool) "released" true !got;
  Alcotest.(check bool) "count still 0" false !late

let ivar_basic () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create sim in
  let got = ref 0 in
  Sim.spawn sim (fun () -> got := Sim.Ivar.read iv);
  ignore (Sim.after sim 2.0 (fun () -> Sim.Ivar.fill iv 42));
  Sim.run sim;
  Tutil.check_int "read blocks then returns" 42 !got

let ivar_double_fill () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create sim in
  Sim.Ivar.fill iv 1;
  Alcotest.check_raises "second fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Sim.Ivar.fill iv 2)

let ivar_timeout_expires () =
  let sim = Sim.create () in
  let iv : int Sim.Ivar.ivar = Sim.Ivar.create sim in
  let got = ref (Some 0) in
  Sim.spawn sim (fun () -> got := Sim.Ivar.read_timeout iv { Sim.seconds = 1.0 });
  Sim.run sim;
  Alcotest.(check bool) "timed out" true (!got = None);
  Alcotest.(check (float 1e-9)) "waited exactly" 1.0 (Sim.now sim)

let ivar_timeout_wins () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create sim in
  let got = ref None in
  Sim.spawn sim (fun () -> got := Sim.Ivar.read_timeout iv { Sim.seconds = 1.0 });
  ignore (Sim.after sim 0.5 (fun () -> Sim.Ivar.fill iv 7));
  Sim.run sim;
  Alcotest.(check bool) "value before timeout" true (!got = Some 7)

let ivar_multiple_readers () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create sim in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Sim.spawn sim (fun () -> sum := !sum + Sim.Ivar.read iv)
  done;
  ignore (Sim.after sim 1.0 (fun () -> Sim.Ivar.fill iv 5));
  Sim.run sim;
  Tutil.check_int "all readers woken" 15 !sum

let event_module_cancel () =
  let sim = Sim.create () in
  let host =
    Host.create sim ~name:"h" ~ip:(Addr.Ip.v 10 0 0 1) ~eth:(Addr.Eth.v 1) ()
  in
  let fired = ref false in
  Sim.spawn sim (fun () ->
      let ev = Event.schedule host { Sim.seconds = 1.0 } (fun r -> r := true) fired in
      Alcotest.(check bool) "cancel ok" true (Event.cancel host ev);
      Alcotest.(check bool) "marks done" false (Event.cancel host ev));
  Sim.run sim;
  Alcotest.(check bool) "never fired" false !fired

(* --- heap + immediate-queue event structure vs a (time, seq) model ----- *)

(* The event queues (near and far binary min-heaps plus the same-instant
   FIFO ring) must fire events in exactly the order of a stable sort by
   time — FIFO among equals, i.e. keyed (time, seq) with seq assigned at
   schedule time.  Delays of 0-1.2 s fall on both sides of the 0.5 s
   near/far split. *)
let qcheck_heap_order =
  Tutil.qtest ~count:300 "firing order is a stable sort by time"
    QCheck.(list_of_size (Gen.int_range 0 80) (int_bound 12))
    (fun times ->
      let sim = Sim.create () in
      let log = ref [] in
      List.iteri
        (fun i t ->
          ignore
            (Sim.after sim (float_of_int t /. 10.) (fun () -> log := i :: !log)))
        times;
      Sim.run sim;
      let model =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      List.rev !log = model)

(* Events scheduled from inside callbacks — including at the current
   instant, the immediate-queue fast path, and on both sides of the
   near/far split — against a list-based reference scheduler that takes
   the (time, seq) minimum each step. *)
let qcheck_nested_order =
  Tutil.qtest ~count:300 "nested scheduling matches reference scheduler"
    QCheck.(
      list_of_size (Gen.int_range 1 25)
        (pair (int_bound 12) (list_of_size (Gen.int_range 0 3) (int_bound 12))))
    (fun plan ->
      let sim = Sim.create () in
      let log = ref [] in
      List.iteri
        (fun i (t, offs) ->
          ignore
            (Sim.after sim (float_of_int t /. 10.) (fun () ->
                 log := i :: !log;
                 List.iteri
                   (fun j off ->
                     ignore
                       (Sim.after sim (float_of_int off /. 10.) (fun () ->
                            log := ((i + 1) * 1000) + j :: !log)))
                   offs)))
        plan;
      Sim.run sim;
      let seq = ref 0 in
      let pending = ref [] in
      let add time id kids =
        Stdlib.incr seq;
        pending := (time, !seq, id, kids) :: !pending
      in
      List.iteri (fun i (t, offs) -> add (float_of_int t /. 10.) i offs) plan;
      let order = ref [] in
      while !pending <> [] do
        let ((time, _, id, kids) as best) =
          List.fold_left
            (fun ((bt, bs, _, _) as b) ((t, s, _, _) as e) ->
              if t < bt || (t = bt && s < bs) then e else b)
            (List.hd !pending) (List.tl !pending)
        in
        pending := List.filter (fun e -> e != best) !pending;
        order := id :: !order;
        List.iteri
          (fun j off ->
            add (time +. (float_of_int off /. 10.)) (((id + 1) * 1000) + j) [])
          kids
      done;
      !log = !order)

(* Fibers, not just callbacks.  Each plan entry is a callback (itself a
   fiber) due 0-1.2 s out that runs a script: a [Sim.delay] of 0-1.2 s,
   or a [Sim.after] that arms a child callback.  Steps of 0.1 s make
   ties common and put waits in both heaps.  The reference scheduler
   models a timed wait as two events: the wake is queued at
   (now + d, seq) when the fiber suspends, and when it is the minimum
   the continuation is queued at (now, fresh seq).  A zero delay is no
   event at all.  Order, fire times and [processed] must all agree. *)
type step = Wait of int | Arm of int

let qcheck_fiber_order =
  let step =
    QCheck.(
      map
        (fun (w, d) -> if w then Wait d else Arm d)
        (pair bool (int_bound 12)))
  in
  Tutil.qtest ~count:300 "fibers match two-half reference scheduler"
    QCheck.(
      list_of_size (Gen.int_range 1 12)
        (pair (int_bound 12) (list_of_size (Gen.int_range 0 6) step)))
    (fun plan ->
      let tenth d = float_of_int d /. 10. in
      let sim = Sim.create () in
      let log = ref [] in
      let note id = log := (id, Sim.now sim) :: !log in
      List.iteri
        (fun i (t, script) ->
          ignore
            (Sim.after sim (tenth t) (fun () ->
                 note (i, 0);
                 List.iteri
                   (fun j st ->
                     match st with
                     | Wait d ->
                         Sim.delay sim (tenth d);
                         note (i, j + 1)
                     | Arm d ->
                         ignore
                           (Sim.after sim (tenth d) (fun () ->
                                note (-i - 1, j + 1))))
                   script)))
        plan;
      Sim.run sim;
      (* A fiber is its id and the script steps it has yet to run. *)
      let seq = ref 0 and fired = ref 0 in
      let pending = ref [] in
      let add time ev =
        Stdlib.incr seq;
        pending := (time, !seq, ev) :: !pending
      in
      let order = ref [] in
      let rec run_fiber now i j = function
        | [] -> ()
        | Wait d :: rest ->
            if d = 0 then begin
              order := ((i, j + 1), now) :: !order;
              run_fiber now i (j + 1) rest
            end
            else add (now +. tenth d) (`Wake (i, j, rest))
        | Arm d :: rest ->
            add (now +. tenth d) (`Child (i, j));
            run_fiber now i (j + 1) rest
      in
      List.iteri (fun i (t, script) -> add (tenth t) (`Start (i, script))) plan;
      while !pending <> [] do
        let ((now, _, ev) as best) =
          List.fold_left
            (fun ((bt, bs, _) as b) ((t, s, _) as e) ->
              if t < bt || (t = bt && s < bs) then e else b)
            (List.hd !pending) (List.tl !pending)
        in
        pending := List.filter (fun e -> e != best) !pending;
        Stdlib.incr fired;
        match ev with
        | `Start (i, script) ->
            order := ((i, 0), now) :: !order;
            run_fiber now i 0 script
        | `Wake (i, j, rest) -> add now (`Resume (i, j, rest))
        | `Resume (i, j, rest) ->
            order := ((i, j + 1), now) :: !order;
            run_fiber now i (j + 1) rest
        | `Child (i, j) -> order := ((-i - 1, j + 1), now) :: !order
      done;
      !log = !order && Sim.processed sim = !fired && Sim.pending sim = 0)

(* Mass cancellation: [pending] counts only live events, the lazy-
   deletion purge must not disturb firing order, and [processed] counts
   executed events.  Even events are due within 0.3 s and odd ones from
   2 s on, so corpses lie in both heaps: two purges compact them, and
   the last cancels leave corpses in both for the run loop to drop. *)
let cancel_purge_pending () =
  let sim = Sim.create () in
  let fired = ref [] in
  let due i =
    if i mod 2 = 0 then 0.001 *. float_of_int (i + 1) else 1.0 +. float_of_int i
  in
  let evs =
    List.init 300 (fun i ->
        (i, Sim.after sim (due i) (fun () -> fired := i :: !fired)))
  in
  Tutil.check_int "all live before cancels" 300 (Sim.pending sim);
  let live =
    List.filter_map
      (fun (i, ev) ->
        if i mod 5 = 0 then Some i
        else begin
          Alcotest.(check bool) "cancel ok" true (Sim.cancel ev);
          None
        end)
      evs
  in
  Tutil.check_int "pending counts only live events" (List.length live)
    (Sim.pending sim);
  Sim.run sim;
  let in_time_order =
    List.stable_sort (fun a b -> compare (due a) (due b)) live
  in
  Alcotest.(check (list int))
    "live events fire in order" in_time_order (List.rev !fired);
  Tutil.check_int "processed counts executions" (List.length live)
    (Sim.processed sim)

(* Random [after], [timer], [at], [cancel] and [run ~until] steps
   against a model that keeps every event's (time, seq) and whether it
   is still live.  [timer] is [after] with the callback's argument in
   the event instead of in a closure.  A case queues about 350-1,200 events in four to six stretches,
   each with its own share of cancels and reach of delays.  Runs advance
   the clock by at most 0.01 s while delays reach 0.5 s or 1 s, so
   stretches without cancels grow a heap past its first 256 entries, and
   stretches that cancel recent events leave enough corpses for [purge]
   to compact the heaps and free slots that later pushes reuse.  [at]
   aims at a 1/40 s grid that [after]'s delays also hit, so ties within
   and across the heaps and the instant FIFO are common.  [call_after]
   queues handle-less callbacks on the same grid (a cancel that picks one
   does nothing); each blocks on one CPU charge of a shared machine, so
   its event becomes the wait record of a fiber that may sit in the CPU's
   queue across runs.  The model serves those charges in the order the
   callbacks start, each finishing its cost after the one before it.
   After each run the events fired must be the model's survivors due by
   the bound, in (time, seq) order, and the charges done must be those
   the model finishes by the bound, each at its finish time; after every
   step [pending] (live events plus charges still held), and after each
   run the clock, must agree. *)
type queue_step =
  | Q_after of int
  | Q_timer of int
  | Q_at of int
  | Q_call of int
  | Q_cancel of int
  | Q_until of int

let qcheck_queue_model =
  let stretch =
    QCheck.Gen.(
      oneofl [ 0; 3; 12 ] >>= fun cancels ->
      oneofl [ 19; 40 ] >>= fun reach ->
      list_size (int_range 150 300)
        (frequency
           [
             (3, map (fun k -> Q_after k) (int_bound reach));
             (2, map (fun k -> Q_timer k) (int_bound reach));
             (2, map (fun k -> Q_at k) (int_bound reach));
             (2, map (fun k -> Q_call k) (int_bound reach));
             (cancels, map (fun k -> Q_cancel k) (int_bound 255));
             (1, map (fun k -> Q_until k) (int_bound 40));
           ]))
  in
  let show = function
    | Q_after k -> Printf.sprintf "after %d/40" k
    | Q_timer k -> Printf.sprintf "timer %d/40" k
    | Q_at k -> Printf.sprintf "at +%d/40" k
    | Q_call k -> Printf.sprintf "call_after %d/40" k
    | Q_cancel k -> Printf.sprintf "cancel -%d" k
    | Q_until k -> Printf.sprintf "until +%d/4000" k
  in
  Tutil.qtest ~count:100 "after, at, cancel, until vs model"
    (QCheck.make
       ~print:QCheck.Print.(list show)
       QCheck.Gen.(map List.concat (list_size (int_range 4 6) stretch)))
    (fun steps ->
      let sim = Sim.create () in
      let m = Machine.create sim Machine.xkernel_sun3 in
      let cost = Machine.cost Machine.xkernel_sun3 Machine.Layer_crossing 0 in
      let cap = List.length steps in
      let handles = Array.make cap None in
      let times = Array.make cap 0. and live = Array.make cap false in
      let queued = ref 0 and n_live = ref 0 and now = ref 0. in
      let fired = ref [] in
      (* The handle-less callbacks: when each one's charge ends, in the
         run and in the model, and the model's CPU. *)
      let is_call = Array.make cap false in
      let done_at = Array.make cap nan and finish = Array.make cap nan in
      let free_at = ref 0. and held = ref [] in
      let schedule time arm =
        let id = !queued in
        incr queued;
        incr n_live;
        times.(id) <- time;
        live.(id) <- true;
        handles.(id) <- arm id
      in
      (* Fire the model's live events due by [u]; ids are seq order.  A
         callback that fires queues its charge behind the CPU's last
         one; the charges that end by [u] are done. *)
      let fire_until u =
        let due =
          List.init !queued Fun.id
          |> List.filter (fun id -> live.(id) && times.(id) <= u)
          |> List.sort (fun a b -> compare (times.(a), a) (times.(b), b))
        in
        List.iter (fun id -> live.(id) <- false) due;
        n_live := !n_live - List.length due;
        List.iter
          (fun id ->
            if is_call.(id) then begin
              let start = times.(id) in
              free_at :=
                if !free_at <= start then start +. cost else !free_at +. cost;
              finish.(id) <- !free_at;
              held := !held @ [ id ]
            end)
          due;
        let ended, still = List.partition (fun id -> finish.(id) <= u) !held in
        held := still;
        let last =
          List.fold_left Float.max !now
            (List.map (fun id -> times.(id)) due
            @ List.map (fun id -> finish.(id)) ended)
        in
        now := if !n_live + List.length still > 0 then u else last;
        (due, ended)
      in
      let ids l = String.concat " " (List.map string_of_int l) in
      let check_fired i u =
        let want, ended = fire_until u and got = List.rev !fired in
        fired := [];
        if got <> want then
          QCheck.Test.fail_reportf "step %d: fired [%s], model [%s]" i
            (ids got) (ids want);
        List.iter
          (fun id ->
            if done_at.(id) <> finish.(id) then
              QCheck.Test.fail_reportf "step %d: call %d done at %h, model %h"
                i id done_at.(id) finish.(id))
          ended;
        List.iter
          (fun id ->
            if not (Float.is_nan done_at.(id)) then
              QCheck.Test.fail_reportf "step %d: call %d done early" i id)
          !held;
        if Sim.now sim <> !now then
          QCheck.Test.fail_reportf "step %d: clock %h, model %h" i
            (Sim.now sim) !now
      in
      let note_id id = fired := id :: !fired in
      let note id () = note_id id in
      let call id =
        note id ();
        Machine.charge m Machine.Layer_crossing 0;
        done_at.(id) <- Sim.now sim
      in
      List.iteri
        (fun i st ->
          (match st with
          | Q_after k ->
              let d = float_of_int k /. 40. in
              schedule (!now +. d) (fun id -> Some (Sim.after sim d (note id)))
          | Q_timer k ->
              let d = float_of_int k /. 40. in
              schedule (!now +. d) (fun id -> Some (Sim.timer sim { Sim.seconds = d } note_id id))
          | Q_at k ->
              let time =
                Float.max !now ((Float.ceil (!now *. 40.) +. float_of_int k) /. 40.)
              in
              schedule time (fun id -> Some (Sim.at sim time (note id)))
          | Q_call k ->
              let d = { Sim.seconds = float_of_int k /. 40. } in
              schedule (!now +. d.seconds) (fun id ->
                  is_call.(id) <- true;
                  Sim.call_after sim d call id;
                  None)
          | Q_cancel k ->
              let id = !queued - 1 - k in
              if id >= 0 && not is_call.(id) then begin
                let was_live = live.(id) in
                if Sim.cancel (Option.get handles.(id)) <> was_live then
                  QCheck.Test.fail_reportf "step %d: cancel of %d" i id;
                if was_live then begin
                  live.(id) <- false;
                  decr n_live
                end
              end
          | Q_until k ->
              let u = !now +. (float_of_int k /. 4000.) in
              Sim.run ~until:u sim;
              check_fired i u);
          let model = !n_live + List.length !held in
          if Sim.pending sim <> model then
            QCheck.Test.fail_reportf "step %d: pending %d, model %d" i
              (Sim.pending sim) model)
        steps;
      Sim.run sim;
      check_fired cap infinity;
      true)

(* Events due at one instant fire in (time, seq) order whichever queue
   holds them.  An event lands in the far heap only when it is queued at
   least 0.5 s before it is due, so of two tied heap roots the far one
   was queued first; 0.6 +. 0.4 = 1.0 exactly, so the near timer below
   ties with the far one.  The two cases arm the same events in opposite
   program order, and the callbacks queue at the tied instant, so the
   heads of all three queues tie as well. *)
let equal_times_across_heaps () =
  let order far_first =
    let sim = Sim.create () in
    let log = ref [] in
    let note s = log := s :: !log in
    let far () =
      ignore
        (Sim.after sim 1.0 (fun () ->
             note "far";
             Sim.spawn sim (fun () -> note "far+0")))
    in
    let near () =
      ignore
        (Sim.after sim 0.6 (fun () ->
             ignore
               (Sim.after sim 0.4 (fun () ->
                    note "near";
                    Sim.spawn sim (fun () -> note "near+0")))))
    in
    if far_first then (far (); near ()) else (near (); far ());
    Sim.spawn sim (fun () ->
        Sim.delay sim 0.5;
        ignore (Sim.after sim 0.5 (fun () -> note "far at 0.5")));
    Sim.run sim;
    Alcotest.(check (float 0.)) "one instant" 1.0 (Sim.now sim);
    List.rev !log
  in
  let expect = [ "far"; "far at 0.5"; "near"; "far+0"; "near+0" ] in
  Alcotest.(check (list string)) "far armed first" expect (order true);
  Alcotest.(check (list string)) "near armed first" expect (order false)

let cancel_after_fire () =
  let sim = Sim.create () in
  let ev = Sim.after sim 0.5 ignore in
  Sim.run sim;
  Alcotest.(check bool) "cancel after fire fails" false (Sim.cancel ev);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

let yield_interleaves () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      log := "a1" :: !log;
      Sim.yield sim;
      log := "a2" :: !log);
  Sim.spawn sim (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

(* A timed wait fires in two halves: the wake event keeps the (time, seq)
   slot taken when the fiber suspended, and the fiber resumes from a
   fresh slot at the back of that instant's queue.  So a timer queued
   after A's wait still runs before A continues, and a semaphore
   hand-off made by that timer lands between the waits that were already
   due.  The list pins the order the scheduler has always produced. *)
let same_instant_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let sem = Sim.Semaphore.create sim 0 in
  Sim.spawn sim (fun () ->
      Sim.Semaphore.p sem;
      note "C");
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      note "A");
  Sim.spawn sim (fun () ->
      ignore
        (Sim.after sim 1.0 (fun () ->
             note "after";
             Sim.Semaphore.v sem)));
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      note "D";
      Sim.yield sim;
      note "D'");
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      note "E");
  Sim.run sim;
  Alcotest.(check (list string))
    "same-instant order"
    [ "after"; "A"; "C"; "D"; "E"; "D'" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "all at one instant" 1.0 (Sim.now sim);
  Tutil.check_int "events executed" 15 (Sim.processed sim)

(* A NaN delay is refused like a negative one, before it can reach the
   clock: a fiber that slept for NaN seconds would resume at [now = nan],
   and every later time would be NaN too. *)
let nan_delay_rejected () =
  let sim = Sim.create () in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      refused "Sim.delay nan" (fun () -> Sim.delay sim nan);
      refused "Sim.delay -1" (fun () -> Sim.delay sim (-1.));
      refused "Sim.after nan" (fun () -> ignore (Sim.after sim nan ignore));
      Sim.delay sim 1.0);
  Sim.run sim;
  Alcotest.(check (float 0.)) "clock untouched" 2.0 (Sim.now sim);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* [Sim.at] fires at exactly the time it is given.  From this clock,
   [after] of the difference would land an ulp late. *)
let at_exact_time () =
  let sim = Sim.create () in
  let start = 0.036686957209045579 and due = 2.7215053751170282 in
  Alcotest.(check bool) "after would miss" true (start +. (due -. start) <> due);
  let fired = ref nan in
  Sim.spawn sim (fun () ->
      Sim.delay sim start;
      ignore (Sim.at sim due (fun () -> fired := Sim.now sim)));
  Sim.run sim;
  Alcotest.(check bool) "fired at due" true (!fired = due)

let at_refuses_past_and_nan () =
  let sim = Sim.create () in
  let refused what time =
    match Sim.at sim time ignore with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let fired = ref false in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      refused "Sim.at nan" nan;
      refused "Sim.at behind the clock" (Float.pred 1.0);
      refused "Sim.at 0" 0.;
      ignore (Sim.at sim 1.0 (fun () -> fired := true)));
  Sim.run sim;
  Alcotest.(check bool) "the current instant is accepted" true !fired;
  Alcotest.(check (float 0.)) "clock" 1.0 (Sim.now sim);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* Scheduling at [now +. d] is scheduling [d] from now: the same fire
   times, and the same order among events due at one instant, whether
   a time falls at the current instant, in the near heap or in the far
   one.  Each callback also spawns a fiber, which joins the back of its
   instant. *)
let qcheck_at_matches_after =
  Tutil.qtest ~count:200 "at (now + d) fires as after d"
    QCheck.(list_of_size (Gen.int_range 0 40) (pair bool (int_bound 12)))
    (fun script ->
      let fire_log use_at =
        let sim = Sim.create () in
        let log = ref [] in
        let note id = log := (id, Sim.now sim) :: !log in
        Sim.spawn sim (fun () ->
            Sim.delay sim 0.3;
            List.iteri
              (fun i (as_at, k) ->
                let d = float_of_int k /. 10. in
                let f () =
                  note i;
                  Sim.spawn sim (fun () -> note (-i - 1))
                in
                ignore
                  (if use_at && as_at then Sim.at sim (Sim.now sim +. d) f
                   else Sim.after sim d f))
              script);
        Sim.run sim;
        List.rev !log
      in
      fire_log true = fire_log false)

(* Each fiber owns one wait record, reused by all its suspensions.  The
   next three cases each break if a record is shared.  First: a
   [Sim.after] event is the caller's cancel handle, so it is never the
   callback's wait record.  A cancel on the handle finds the event
   already run both while the callback is parked and while its timed
   wait is requeued, between the wait's two halves. *)
let after_handle_not_a_record () =
  let sim = Sim.create () in
  let sem = Sim.Semaphore.create sim 0 in
  let finished = ref false in
  let ev =
    Sim.after sim 1.0 (fun () ->
        Sim.Semaphore.p sem;
        Sim.delay sim 1.0;
        finished := true)
  in
  let check what = Alcotest.(check bool) what false (Sim.cancel ev) in
  ignore
    (Sim.after sim 1.5 (fun () ->
         check "cancel while parked";
         Sim.Semaphore.v sem;
         (* Let the callback start its wait, then arm a check due at the
            same instant but after the wait's first half, which requeues
            the callback behind the check. *)
         Sim.yield sim;
         ignore (Sim.after sim 1.0 (fun () -> check "cancel between halves"))));
  Sim.run sim;
  Alcotest.(check bool) "callback finished" true !finished;
  Alcotest.(check (float 0.)) "woken at 1.5, slept 1 s" 2.5 (Sim.now sim);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* The same for an argument-carrying timer: its callback suspends on a
   semaphore, and a cancel while it is parked, and one right after the
   [v] that requeues it (before it resumes), both find the timer spent.
   Were the timer event the callback's wait record, the second cancel
   would find it queued, return [true] and drop the continuation. *)
let timer_handle_not_a_record () =
  let sim = Sim.create () in
  let sem = Sim.Semaphore.create sim 0 in
  let log = ref [] in
  let callback tag =
    log := (tag ^ " parks") :: !log;
    Sim.Semaphore.p sem;
    log := (tag ^ " resumes") :: !log
  in
  let ev = Sim.timer sim { Sim.seconds = 0.5 } callback "timer" in
  let cancels = ref [] in
  ignore
    (Sim.after sim 1.0 (fun () ->
         cancels := Sim.cancel ev :: !cancels;
         Sim.Semaphore.v sem;
         cancels := Sim.cancel ev :: !cancels));
  Sim.run sim;
  Alcotest.(check (list bool)) "cancel while parked, and once woken" [ false; false ]
    !cancels;
  Alcotest.(check (list string))
    "callback ran to the end" [ "timer parks"; "timer resumes" ] (List.rev !log);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* Second: one fiber goes through every kind of suspension, its record
   changing hands at each [read_timeout], while fresh helper fibers
   (spawned and [Sim.after] callbacks) that suspend too wake it.  A
   helper that took over the record of the fiber before it, or a
   resumption that reused its waker's record, would lose a continuation
   or run one twice. *)
let one_fiber_every_wait () =
  let sim = Sim.create () in
  let sem = Sim.Semaphore.create sim 0 in
  let rounds = 1_000 in
  let laps = ref 0 and filled = ref 0 and timed_out = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 1 to rounds do
        Sim.spawn sim (fun () ->
            Sim.yield sim;
            Sim.Semaphore.v sem);
        Sim.Semaphore.p sem;
        (* Queued, not in place: a helper's timer is due first. *)
        ignore (Sim.after sim 1e-4 (fun () -> Sim.yield sim));
        Sim.delay sim 1e-3;
        Sim.yield sim;
        let iv = Sim.Ivar.create sim in
        if i mod 2 = 0 then
          ignore
            (Sim.after sim 1e-4 (fun () ->
                 Sim.yield sim;
                 Sim.Ivar.fill iv i));
        (match Sim.Ivar.read_timeout iv { Sim.seconds = 1e-3 } with
        | Some j ->
            Tutil.check_int "the round's value" i j;
            incr filled
        | None -> incr timed_out);
        incr laps
      done);
  Sim.run sim;
  Tutil.check_int "every round" rounds !laps;
  Tutil.check_int "filled" (rounds / 2) !filled;
  Tutil.check_int "timed out" (rounds / 2) !timed_out;
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* Third: a fiber that runs a nested [Sim.run] gets its own record back
   when the inner run returns, not the record of the last fiber the inner
   run continued, which is still asleep. *)
let nested_run_keeps_record () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s = log := (s, Sim.now sim) :: !log in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      note "g woke";
      Sim.delay sim 1.0;
      note "g done");
  Sim.spawn sim (fun () ->
      Sim.yield sim;
      Sim.run ~until:1.5 sim;
      note "inner run returned";
      Sim.yield sim;
      Sim.delay sim 1.0;
      note "f done");
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.))))
    "each fiber resumes once per wait"
    [
      ("g woke", 1.0);
      ("inner run returned", 1.5);
      ("g done", 2.0);
      ("f done", 2.5);
    ]
    (List.rev !log);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* Allocation budgets for the per-crossing hot path, in minor words per
   operation over 10k operations.  A fiber reuses one wait record for
   all its suspensions, so a fiber switch allocates only its
   continuation: OCaml 5.1 measures 2 words for a yield or a semaphore
   hand-off, and 2 for a queued timed wait, short or long, and for a
   queued CPU charge.  The clock sits in an all-float record, so moving
   it boxes nothing, and a wait or charge that runs in place allocates
   nothing, a charge of a run-time byte count included: it takes the
   count as an int and its hold reads the cost from the machine's
   all-float record, so neither an op block nor a float is built.  A
   read of [Sim.now] from this module into float arithmetic allocates
   nothing because the libraries are compiled without [-opaque], so the
   read is inlined; with [-opaque] it returns a boxed float (2 words).
   A disabled trace point allocates nothing, or 15 words for a [debugf]
   that only discards its arguments (26 with [-opaque]).  A charge that
   finds the CPU busy is a [Sim.Server] hold, one queued timed wait to
   the finish it is given on arrival, so 8 fibers contending cost what
   a queued charge does (2), and so does a bare hold of a busy server.
   A two-op charge sums its list in place (2), an ivar read that blocks
   until a fresh fiber fills it costs 32 all told (the ivar, its wait
   ring and the filling fiber, whose spawn builds no closure: 36 with
   one), 55 with [read_timeout] instead (its timer event and action,
   the cell naming the reader's record, and the [Some]: 88 through the
   closure-based suspend path this replaced, 60 with a ring entry apart
   from the timer), and one 64-byte frame on a fault-free
   5-tap wire 54 (four deliveries, each one event carrying the tap's
   [recv] and the frame, with no closure; the arrival delay is read
   from the wire's all-float record).  A closure per delivery reads 72
   there, and a boxed delay 56.  A row
   that times a whole [Sim.run] runs its batch once first, so the event
   heaps have grown to the batch's size before the measured run.  The
   budgets leave headroom for other 5.x runtimes. *)
let words_per_op n f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int n

(* Minor words per op of a run of the fibers [batch] spawns, [n] ops in
   all, measured on the second of two runs. *)
let warm_run_words n sim batch =
  batch ();
  Sim.run sim;
  batch ();
  words_per_op n (fun () -> Sim.run sim)

(* Minor words per [op] taking the queued path.  Two fibers each run [n]
   rounds of [op], the second half a [period] behind, so whenever one
   waits the other's wake is queued and due sooner, and no wait runs in
   place.  Each fiber has its own machine, so no charge waits for the
   CPU.  The count covers both fibers' rounds.  [standing] timers sit in
   the near heap throughout, due after the rounds end, so each queued
   wait sifts through them. *)
let queued_words ?(standing = 0) n ~period op =
  let sim = Sim.create () in
  for i = 1 to standing do
    ignore (Sim.after sim (0.25 +. (float_of_int i *. 1e-3)) ignore)
  done;
  let w = ref nan in
  let fiber ~lead =
    let m = Machine.create sim Machine.xkernel_sun3 in
    Sim.spawn sim (fun () ->
        if not lead then Sim.delay sim (period /. 2.);
        (* Let the event queues grow to size before measuring. *)
        op sim m;
        let rounds () =
          for _ = 1 to n do
            op sim m
          done
        in
        if lead then w := words_per_op (2 * n) rounds else rounds ())
  in
  fiber ~lead:true;
  fiber ~lead:false;
  Sim.run sim;
  !w

(* (operation, budget, measured), printed after the run so that every
   test log records this runtime's figures. *)
let measured = ref []

(* A float accumulator that boxes nothing. *)
type total = { mutable total : float }

let alloc_budget () =
  let n = 10_000 in
  let cost ops =
    List.fold_left
      (fun acc (kind, n) -> acc +. Machine.cost Machine.xkernel_sun3 kind n)
      0. ops
  in
  let crossing = [ (Machine.Layer_crossing, 0) ] in
  let two_ops = [ (Machine.Layer_crossing, 0); (Machine.Process_switch, 0) ] in
  let delay_w =
    queued_words n ~period:1e-6 (fun sim _ -> Sim.delay sim 1e-6)
  in
  let deep_w =
    queued_words ~standing:64 n ~period:1e-6 (fun sim _ -> Sim.delay sim 1e-6)
  in
  let far_w = queued_words n ~period:1.0 (fun sim _ -> Sim.delay sim 1.0) in
  let charge_w =
    queued_words n ~period:(cost crossing) (fun _ m ->
        Machine.charge m Machine.Layer_crossing 0)
  in
  let charge2_w =
    queued_words n ~period:(cost two_ops) (fun _ m ->
        Machine.charge_all m two_ops)
  in
  (* A lone fiber: nothing else is ever due, so its waits run in place. *)
  let sim = Sim.create () in
  let m = Machine.create sim Machine.xkernel_sun3 in
  let yield_w = ref nan and in_place_w = ref nan and lone_w = ref nan in
  let bytes_w = ref nan and now_w = ref nan and ivar_w = ref nan in
  let timed_w = ref nan in
  let acc = { total = 0. } in
  Sim.spawn sim (fun () ->
      yield_w :=
        words_per_op n (fun () ->
            for _ = 1 to n do
              Sim.yield sim
            done);
      in_place_w :=
        words_per_op n (fun () ->
            for _ = 1 to n do
              Sim.delay sim 1e-6
            done);
      lone_w :=
        words_per_op n (fun () ->
            for _ = 1 to n do
              Machine.charge m Machine.Layer_crossing 0
            done);
      bytes_w :=
        words_per_op n (fun () ->
            for i = 1 to n do
              Machine.charge m Machine.Header i
            done);
      now_w :=
        words_per_op n (fun () ->
            for _ = 1 to n do
              acc.total <- acc.total +. Sim.now sim
            done);
      ivar_w :=
        words_per_op n (fun () ->
            for _ = 1 to n do
              let iv = Sim.Ivar.create sim in
              Sim.spawn sim (fun () -> Sim.Ivar.fill iv ());
              Sim.Ivar.read iv
            done);
      let one_s = { Sim.seconds = 1.0 } in
      timed_w :=
        words_per_op n (fun () ->
            for _ = 1 to n do
              let iv = Sim.Ivar.create sim in
              Sim.spawn sim (fun () -> Sim.Ivar.fill iv ());
              ignore (Sim.Ivar.read_timeout iv one_s)
            done));
  Sim.run sim;
  (* Two fibers pass control back and forth through two semaphores: each
     hand-off is one park and one wake. *)
  let sim = Sim.create () in
  let ping = Sim.Semaphore.create sim 0 and pong = Sim.Semaphore.create sim 0 in
  let handoff_w = ref nan in
  Sim.spawn sim (fun () ->
      for _ = 0 to n do
        Sim.Semaphore.p ping;
        Sim.Semaphore.v pong
      done);
  Sim.spawn sim (fun () ->
      (* The first round gives both fibers their records. *)
      Sim.Semaphore.v ping;
      Sim.Semaphore.p pong;
      handoff_w :=
        words_per_op (2 * n) (fun () ->
            for _ = 1 to n do
              Sim.Semaphore.v ping;
              Sim.Semaphore.p pong
            done));
  Sim.run sim;
  (* Eight fibers contend for one CPU, so nearly every charge blocks on
     the CPU semaphore and is woken by the previous holder. *)
  let sim = Sim.create () in
  let m = Machine.create sim Machine.xkernel_sun3 in
  let contended_w =
    warm_run_words n sim (fun () ->
        for _ = 1 to 8 do
          Sim.spawn sim (fun () ->
              for _ = 1 to n / 8 do
                Machine.charge m Machine.Layer_crossing 0
              done)
        done)
  in
  (* Two fibers hold one server in turn: after the first, every hold
     arrives while the other's is in flight. *)
  let sim = Sim.create () in
  let server = Sim.Server.create sim in
  let d = { Sim.seconds = 1e-6 } in
  let hold_w =
    warm_run_words n sim (fun () ->
        for _ = 1 to 2 do
          Sim.spawn sim (fun () ->
              for _ = 1 to n / 2 do
                Sim.Server.hold server d
              done)
        done)
  in
  let sim = Sim.create () in
  let wire = Wire.create sim () in
  let taps = List.init 5 (fun _ -> Wire.attach wire ~recv:ignore) in
  let frame = Msg.of_string (String.make 64 'x') in
  let frame_w =
    warm_run_words n sim (fun () ->
        Sim.spawn sim (fun () ->
            for _ = 1 to n do
              Wire.transmit wire ~from:(List.hd taps) frame
            done))
  in
  let msg = Msg.of_string "payload" in
  let trace_w =
    words_per_op n (fun () ->
        for _ = 1 to n do
          Trace.packet sim ~host:"h" ~proto:"P" ~dir:`Send msg
        done)
  in
  let client = Addr.Ip.v 10 0 0 1 in
  let debugf_w =
    words_per_op n (fun () ->
        for _ = 1 to n do
          Trace.debugf sim ~host:"h" "INC hit: reply %d bytes for %a from cache"
            64 Addr.Ip.pp client
        done)
  in
  let figures =
    [
      (* A yield is a timed wait that never touches a heap, a short
         queued wait goes through the near heap and a long one through
         the far heap.  Each must allocate what the one before it does,
         so a float boxed on a heap's path or on the clock's shows.  With
         64 timers in the near heap, each short wait's push and pop
         sift five or six levels each, so a float boxed per level
         shows (12 words with one in the downward sift alone).  In
         place, a wait or a charge allocates nothing, so a float passed
         as an argument there, or a fall-back to the queued path,
         shows. *)
      ("Sim.yield", 3., !yield_w);
      ("semaphore hand-off", 2.5, !handoff_w);
      ("Sim.delay", !yield_w +. 0.5, delay_w);
      ("Sim.delay, 64 timers in near", 2.5, deep_w);
      ("Sim.delay 1 s", delay_w +. 0.5, far_w);
      ("Sim.delay, in place", 0.5, !in_place_w);
      ("Machine.charge", 4., charge_w);
      ("Machine.charge, lone fiber", 0.5, !lone_w);
      ("charge of run-time bytes, lone", 0.5, !bytes_w);
      ("Sim.now read from outside", 0.5, !now_w);
      ("Trace.packet (off)", 0.01, trace_w);
      ("Trace.debugf (off)", 17., debugf_w);
      ("Machine.charge, 8 contending", 4., contended_w);
      ("server hold, busy", 2.5, hold_w);
      ("Machine.charge_all, two ops", 2.5, charge2_w);
      ("Ivar create+fill+read", 34., !ivar_w);
      ("Ivar create+fill+read_timeout", 57., !timed_w);
      ("64-byte frame, 5-tap wire", 55., frame_w);
    ]
  in
  measured := figures;
  match List.filter (fun (_, budget, w) -> not (w <= budget)) figures with
  | [] -> ()
  | over ->
      Alcotest.failf "over budget: %s"
        (String.concat ", "
           (List.map
              (fun (what, budget, w) ->
                Printf.sprintf "%s %.2f > %g" what w budget)
              over))

(* Twenty fibers block on one semaphore in waves while releases trail
   behind, so the wait ring grows several times and wraps; they must
   get through [p] in exactly the order they blocked. *)
let semaphore_ring_fifo () =
  let sim = Sim.create () in
  let sem = Sim.Semaphore.create sim 0 in
  let woke = ref [] and arrived = ref 0 and released = ref 0 in
  let extra = ref false in
  Sim.spawn sim (fun () ->
      List.iter
        (fun (arrive, release) ->
          for _ = 1 to arrive do
            let i = !arrived in
            Sim.spawn sim (fun () ->
                Sim.Semaphore.p sem;
                woke := i :: !woke);
            incr arrived
          done;
          (* The new fibers run and block before this one resumes. *)
          Sim.yield sim;
          Tutil.check_int "none woken by arriving" !released
            (List.length !woke);
          (* Back to back: each v takes its waiter off the ring at once,
             or the next would wake the same one, and none counts. *)
          for _ = 1 to release do
            Sim.Semaphore.v sem;
            incr released
          done;
          Sim.yield sim;
          Tutil.check_int "woken so far" !released (List.length !woke))
        [ (3, 1); (6, 2); (1, 4); (9, 5); (1, 8) ];
      Sim.Semaphore.v sem;
      Alcotest.(check bool) "a v with no waiter counts" true
        (p_without_blocking sim sem);
      taker sim sem extra);
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO wake order" (List.init 20 Fun.id)
    (List.rev !woke);
  Alcotest.(check bool) "and p takes it back" false !extra;
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* One fill wakes plain and timed readers alike in the order they began
   waiting.  A reader whose timeout already expired has finished and
   must not be resumed by the fill; a waiting timed reader's timer is
   cancelled. *)
let ivar_wake_order () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create sim in
  let log = ref [] in
  let note s = log := s :: !log in
  let reader name = Sim.spawn sim (fun () -> note (name ^ "=" ^ Sim.Ivar.read iv)) in
  let timed name d =
    Sim.spawn sim (fun () ->
        match Sim.Ivar.read_timeout iv { Sim.seconds = d } with
        | Some x -> note (name ^ "=" ^ x)
        | None -> note (name ^ " timed out"))
  in
  reader "a";
  timed "b" 5.;
  timed "early" 0.5;
  reader "c";
  timed "d" 5.;
  reader "e";
  ignore (Sim.after sim 1. (fun () -> Sim.Ivar.fill iv "v"));
  Sim.run sim;
  Alcotest.(check (list string))
    "arrival order"
    [ "early timed out"; "a=v"; "b=v"; "c=v"; "d=v"; "e=v" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "no timer left to run" 1. (Sim.now sim);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* The timed read's order at a deadline that ties a fill.  The
   reader's timer takes its [seq] when the reader suspends, and either
   way the reader continues from the back of the instant it was settled
   in, once, reading whatever the ivar holds by then.  [fill_at] arms
   the fill: before the read, after the read has suspended, or after it
   and one yield late, so it lands behind the reader's resumption. *)
type fill_at = Before_read | After_read | After_resume

let timed_read_at_deadline fill_at =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create sim in
  let log = ref [] in
  let note s = log := (s, Sim.now sim) :: !log in
  let fill () =
    if fill_at = After_resume then Sim.yield sim;
    note "fill";
    Sim.Ivar.fill iv 1
  in
  Sim.spawn sim (fun () ->
      (match Sim.Ivar.read_timeout iv { Sim.seconds = 1.0 } with
      | Some _ -> note "read"
      | None -> note "timed out");
      Sim.delay sim 1.0;
      note "reader done");
  (match fill_at with
  | Before_read -> ignore (Sim.after sim 1.0 fill)
  | After_read | After_resume ->
      (* Runs after the reader has suspended and taken its timer's seq. *)
      Sim.spawn sim (fun () -> ignore (Sim.after sim 1.0 fill)));
  Sim.run sim;
  Tutil.check_int "nothing pending" 0 (Sim.pending sim);
  (List.rev !log, Sim.processed sim)

let timeline = Alcotest.(list (pair string (float 0.)))

let timed_read_fill_queued_first () =
  let log, processed = timed_read_at_deadline Before_read in
  Alcotest.check timeline "the fill wins and cancels the timer"
    [ ("fill", 1.0); ("read", 1.0); ("reader done", 2.0) ]
    log;
  (* Reader start, fill, reader resumed, the delay's two halves. *)
  Tutil.check_int "events" 5 processed

let timed_read_deadline_queued_first () =
  let log, processed = timed_read_at_deadline After_read in
  Alcotest.check timeline
    "the timer fires first; the fill lands before the reader resumes"
    [ ("fill", 1.0); ("read", 1.0); ("reader done", 2.0) ]
    log;
  (* Reader start, the arming fiber, timer, fill, reader resumed, the
     delay's two halves. *)
  Tutil.check_int "events" 7 processed

let timed_read_fill_after_resume () =
  let log, processed = timed_read_at_deadline After_resume in
  Alcotest.check timeline "the reader resumes empty-handed, once"
    [ ("timed out", 1.0); ("fill", 1.0); ("reader done", 2.0) ]
    log;
  (* As above, plus the fill's yield: two halves. *)
  Tutil.check_int "events" 9 processed

(* Plain and timed readers, one of each, in both arrival orders. *)
let timed_and_plain_in_arrival_order () =
  List.iter
    (fun timed_first ->
      let sim = Sim.create () in
      let iv = Sim.Ivar.create sim in
      let log = ref [] in
      let plain () =
        Sim.spawn sim (fun () ->
            let x = Sim.Ivar.read iv in
            log := ("plain", x) :: !log)
      in
      let timed () =
        Sim.spawn sim (fun () ->
            match Sim.Ivar.read_timeout iv { Sim.seconds = 5.0 } with
            | Some x -> log := ("timed", x) :: !log
            | None -> log := ("timed out", 0) :: !log)
      in
      if timed_first then (timed (); plain ()) else (plain (); timed ());
      ignore (Sim.after sim 1.0 (fun () -> Sim.Ivar.fill iv 3));
      Sim.run sim;
      let order =
        if timed_first then [ ("timed", 3); ("plain", 3) ]
        else [ ("plain", 3); ("timed", 3) ]
      in
      Alcotest.(check (list (pair string int))) "arrival order" order
        (List.rev !log);
      Alcotest.(check (float 0.)) "the timer was cancelled" 1.0 (Sim.now sim);
      Tutil.check_int "nothing pending" 0 (Sim.pending sim))
    [ true; false ]

(* A [Sim.after] callback runs as a fiber with no wait record of its
   own; a timed read there makes one, for either outcome, and the
   callback can wait again afterwards. *)
let timed_read_in_after_callback () =
  let sim = Sim.create () in
  let filled = Sim.Ivar.create sim and never = Sim.Ivar.create sim in
  let log = ref [] in
  let note s = log := (s, Sim.now sim) :: !log in
  ignore
    (Sim.after sim 1.0 (fun () ->
         (match Sim.Ivar.read_timeout filled { Sim.seconds = 1.0 } with
         | Some x -> note (Printf.sprintf "got %d" x)
         | None -> note "filled: timed out");
         (match Sim.Ivar.read_timeout never { Sim.seconds = 0.5 } with
         | Some _ -> note "never: filled"
         | None -> note "never: timed out");
         Sim.delay sim 0.25;
         note "callback done"));
  ignore (Sim.after sim 1.5 (fun () -> Sim.Ivar.fill filled 9));
  Sim.run sim;
  Alcotest.check timeline "one fill, one timeout, then a delay"
    [ ("got 9", 1.5); ("never: timed out", 2.0); ("callback done", 2.25) ]
    (List.rev !log);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

(* A fill that comes after the reader's timeout finds the reader parked
   elsewhere, on a semaphore, and must leave it there. *)
let late_fill_resumes_once () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create sim in
  let sem = Sim.Semaphore.create sim 0 in
  let log = ref [] in
  let note s = log := (s, Sim.now sim) :: !log in
  Sim.spawn sim (fun () ->
      (match Sim.Ivar.read_timeout iv { Sim.seconds = 1.0 } with
      | Some _ -> note "read"
      | None -> note "timed out");
      Sim.Semaphore.p sem;
      note "released");
  ignore (Sim.after sim 1.5 (fun () -> Sim.Ivar.fill iv 0));
  ignore (Sim.after sim 3.0 (fun () -> Sim.Semaphore.v sem));
  Sim.run sim;
  Alcotest.check timeline "one resumption per wait"
    [ ("timed out", 1.0); ("released", 3.0) ]
    (List.rev !log);
  Tutil.check_int "nothing pending" 0 (Sim.pending sim)

let () =
  Alcotest.run ~and_exit:false "sim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "time ordering" `Quick time_ordering;
          Alcotest.test_case "FIFO at same instant" `Quick fifo_at_same_time;
          Alcotest.test_case "clock advances with delay" `Quick clock_advances;
          Alcotest.test_case "timer cancellation" `Quick cancel_timer;
          Alcotest.test_case "run ~until" `Quick run_until;
          Alcotest.test_case "until behind the clock" `Quick
            until_behind_clock;
          Alcotest.test_case "blocking outside fiber" `Quick not_in_fiber;
          Alcotest.test_case "runaway guard" `Quick stall_guard;
          Alcotest.test_case "wait past the bound" `Quick wait_past_until;
          Alcotest.test_case "Stalled not swallowed" `Quick stall_not_swallowed;
          Alcotest.test_case "delay outside fiber around runs" `Quick
            delay_outside_runs;
          Alcotest.test_case "yield" `Quick yield_interleaves;
          Alcotest.test_case "same-instant order" `Quick same_instant_order;
          Alcotest.test_case "allocation budget" `Quick alloc_budget;
          Alcotest.test_case "NaN delay rejected" `Quick nan_delay_rejected;
          Alcotest.test_case "at fires at the exact time" `Quick at_exact_time;
          Alcotest.test_case "at refuses past and NaN" `Quick
            at_refuses_past_and_nan;
          qcheck_at_matches_after;
        ] );
      (* No suite name longer than "event queue": Alcotest pads each
         line to the longest suite name and cuts test names at 80
         columns, so a longer one changes how other tests are named. *)
      ( "wait record",
        [
          Alcotest.test_case "after handle is not a record" `Quick
            after_handle_not_a_record;
          Alcotest.test_case "cancel of a suspended timer callback" `Quick
            timer_handle_not_a_record;
          Alcotest.test_case "one fiber, every wait" `Quick
            one_fiber_every_wait;
          Alcotest.test_case "nested run keeps the record" `Quick
            nested_run_keeps_record;
        ] );
      ( "event queue",
        [
          qcheck_heap_order;
          qcheck_nested_order;
          qcheck_fiber_order;
          qcheck_queue_model;
          Alcotest.test_case "cancel purge and pending" `Quick
            cancel_purge_pending;
          Alcotest.test_case "cancel after fire" `Quick cancel_after_fire;
          Alcotest.test_case "equal times across heaps" `Quick
            equal_times_across_heaps;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion + FIFO" `Quick semaphore_mutex;
          Alcotest.test_case "counting" `Quick semaphore_counts;
          Alcotest.test_case "waiter accounting" `Quick semaphore_waiters;
          Alcotest.test_case "FIFO across ring growth" `Quick
            semaphore_ring_fifo;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "read blocks until fill" `Quick ivar_basic;
          Alcotest.test_case "double fill rejected" `Quick ivar_double_fill;
          Alcotest.test_case "timeout expires" `Quick ivar_timeout_expires;
          Alcotest.test_case "fill beats timeout" `Quick ivar_timeout_wins;
          Alcotest.test_case "multiple readers" `Quick ivar_multiple_readers;
          Alcotest.test_case "mixed readers wake in order" `Quick
            ivar_wake_order;
          Alcotest.test_case "timed read: fill queued first" `Quick
            timed_read_fill_queued_first;
          Alcotest.test_case "timed read: deadline queued first" `Quick
            timed_read_deadline_queued_first;
          Alcotest.test_case "timed read: fill after the resume" `Quick
            timed_read_fill_after_resume;
          Alcotest.test_case "timed and plain in arrival order" `Quick
            timed_and_plain_in_arrival_order;
          Alcotest.test_case "timed read in an after callback" `Quick
            timed_read_in_after_callback;
          Alcotest.test_case "late fill resumes once" `Quick
            late_fill_resumes_once;
          Alcotest.test_case "event library cancel" `Quick event_module_cancel;
        ] );
    ];
  print_string "\n\nallocation budget, minor words/op:\n";
  List.iter
    (fun (what, budget, w) ->
      Printf.printf "  %-34s %6.2f (budget %g)\n" what w budget)
    !measured
