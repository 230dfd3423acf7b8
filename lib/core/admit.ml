open Xkernel

type config = {
  queue_limit : int;
  codel_target : float;
  codel_interval : float;
  lifo : bool;
}

let default =
  { queue_limit = 64; codel_target = 0.; codel_interval = 0.1; lifo = false }

type item = {
  msg : Msg.t;
  lower : Proto.session; (* the channel session the request claims *)
  at : float; (* enqueue time, for the sojourn clock *)
  expires : float option; (* propagated deadline, frozen at enqueue *)
}

type t = {
  host : Host.t;
  upper : Proto.t;
  cfg : config;
  p : Proto.t;
  q : item Queue.t; (* FIFO discipline *)
  mutable lifo_q : item list; (* LIFO-under-overload discipline *)
  mutable depth : int;
  work : Sim.Semaphore.sem;
  stats : Stats.t;
  (* Simplified CoDel: once sojourn stays above [codel_target] for a
     full [codel_interval], drop the head and restart the interval. *)
  mutable above_since : float; (* negative: not currently above target *)
  mutable sojourn_max : float;
  c_admitted : Stats.counter;
  c_busy_rejected : Stats.counter;
  c_codel_dropped : Stats.counter;
  c_expired : Stats.counter;
}

let proto t = t.p
let depth t = t.depth
let busy_rejected t = Stats.value t.c_busy_rejected
let codel_dropped t = Stats.value t.c_codel_dropped
let expired_dropped t = Stats.value t.c_expired

let reject t lower =
  Stats.tick t.c_busy_rejected;
  ignore (Proto.session_control lower Control.Reject_busy)

let enqueue t ~lower msg =
  if t.depth >= t.cfg.queue_limit then reject t lower
  else begin
    let expires =
      match Proto.session_control lower Control.Get_rx_deadline with
      | Control.R_float e when e >= 0. -> Some e
      | _ -> None
    in
    let item = { msg; lower; at = Sim.now (Host.sim t.host); expires } in
    if t.cfg.lifo then t.lifo_q <- item :: t.lifo_q else Queue.add item t.q;
    t.depth <- t.depth + 1;
    Sim.Semaphore.v t.work
  end

let take t =
  t.depth <- t.depth - 1;
  if t.cfg.lifo then
    match t.lifo_q with
    | item :: rest ->
        t.lifo_q <- rest;
        item
    | [] -> assert false
  else Queue.take t.q

(* One admission decision at the head of the queue.  Runs in the worker
   fiber, so everything the admitted request costs — the SELECT header,
   the procedure itself, the reply's trip down the stack — is serialized
   here, and the queue sojourn is honest wall-clock waiting. *)
let dispatch t item =
  let now = Sim.now (Host.sim t.host) in
  let sojourn = now -. item.at in
  if sojourn > t.sojourn_max then begin
    t.sojourn_max <- sojourn;
    Stats.set t.stats "sojourn-max-us" (int_of_float (sojourn *. 1e6))
  end;
  let expired = match item.expires with Some e -> e <= now | None -> false in
  if expired then begin
    (* The caller's budget lapsed while the request queued here: no
       reply — the caller is gone — and, crucially, no procedure CPU.
       The channel below stops waiting for one. *)
    Stats.tick t.c_expired;
    ignore (Proto.session_control item.lower Control.No_reply)
  end
  else if t.cfg.codel_target > 0. && sojourn > t.cfg.codel_target then
    if t.above_since < 0. then begin
      (* First sojourn above target: start the interval clock, admit. *)
      t.above_since <- now;
      Stats.tick t.c_admitted;
      Proto.deliver t.upper ~lower:item.lower item.msg
    end
    else if now -. t.above_since >= t.cfg.codel_interval then begin
      (* Persistently above target for a whole interval: shed. *)
      t.above_since <- now;
      Stats.tick t.c_codel_dropped;
      reject t item.lower
    end
    else begin
      Stats.tick t.c_admitted;
      Proto.deliver t.upper ~lower:item.lower item.msg
    end
  else begin
    t.above_since <- -1.;
    Stats.tick t.c_admitted;
    Proto.deliver t.upper ~lower:item.lower item.msg
  end

let create ~host ~upper ?(config = default) () =
  if config.queue_limit < 1 then invalid_arg "Admit: queue_limit < 1";
  let p = Proto.create ~host ~name:"ADMIT" ~virtual_:true () in
  let stats = Proto.stats p in
  let t =
    {
      host;
      upper;
      cfg = config;
      p;
      q = Queue.create ();
      lifo_q = [];
      depth = 0;
      work = Sim.Semaphore.create (Host.sim host) 0;
      stats;
      above_since = -1.;
      sojourn_max = 0.;
      c_admitted = Stats.counter stats "admitted";
      c_busy_rejected = Stats.counter stats "busy-rejected";
      c_codel_dropped = Stats.counter stats "codel-drop";
      c_expired = Stats.counter stats "deadline-expired-server";
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Admit: server-side only");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Admit: server-side only");
      open_done = (fun ~upper:_ _ -> invalid_arg "Admit: server-side only");
      demux = (fun ~lower msg -> enqueue t ~lower msg);
      p_control = (fun req -> Stats.control stats req);
    };
  (* The executor: requests surface in [demux] (any demux fiber), but
     only this fiber runs them, one at a time — the explicit queue in
     front of the procedure that the admission policy governs. *)
  Sim.daemon (Host.sim host) ~name:"admit-worker" (fun () ->
      let rec loop () =
        Sim.Semaphore.p t.work;
        dispatch t (take t);
        loop ()
      in
      loop ());
  t
