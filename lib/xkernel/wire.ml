type fault = Drop | Duplicate | Delay of float | Corrupt of int

type stats = {
  frames : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  delayed : int;
  partitioned : int;
  bytes : int;
}

type attachment = {
  tap_id : int;
  accepts : Msg.t -> bool; (* the device's address filter *)
  recv : Msg.t -> unit;
}

(* Mirror handles into a registered per-wire table, resolved once at
   create time.  Only labelled wires pay for (or appear in) the
   registry: a multi-wire world would otherwise collide every wire's
   gauges on one key. *)
type lbl = {
  l_frames : Stats.counter;
  l_delivered : Stats.counter;
  l_dropped : Stats.counter;
  l_duplicated : Stats.counter;
  l_corrupted : Stats.counter;
  l_delayed : Stats.counter;
  l_partitioned : Stats.counter;
  l_bytes : Stats.counter;
}

(* A 10 Mb/s ethernet with 5 microseconds of propagation delay. *)
let bandwidth = 10e6
let propagation = 5e-6

type t = {
  w_sim : Sim.t;
  medium : Sim.Server.server;
  tx_time : Sim.duration; (* each frame's serialization time *)
  arrival : Sim.duration; (* each copy's delay from the end of transmission *)
  rng : Random.State.t;
  lbl : lbl option;
  mutable taps : attachment list;
  mutable next_tap : int;
  mutable drop_rate : float;
  mutable dup_rate : float;
  mutable fault_hook : (int -> Msg.t -> fault list) option;
  mutable down : bool;
  blocked : (int * int, unit) Hashtbl.t; (* (src tap, dst tap) pairs *)
  mutable frame_count : int;
  (* The {!stats} totals, bumped in place; [stats] copies them out. *)
  mutable n_frames : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable n_duplicated : int;
  mutable n_corrupted : int;
  mutable n_delayed : int;
  mutable n_partitioned : int;
  mutable n_bytes : int;
}

let create w_sim ?(seed = 42) ?label () =
  let lbl =
    match label with
    | None -> None
    | Some l ->
        let tbl = Stats.create ~name:("wire/" ^ l) () in
        Some
          {
            l_frames = Stats.counter tbl "frames";
            l_delivered = Stats.counter tbl "delivered";
            l_dropped = Stats.counter tbl "dropped";
            l_duplicated = Stats.counter tbl "duplicated";
            l_corrupted = Stats.counter tbl "corrupted";
            l_delayed = Stats.counter tbl "delayed";
            l_partitioned = Stats.counter tbl "partitioned";
            l_bytes = Stats.counter tbl "bytes";
          }
  in
  {
    w_sim;
    medium = Sim.Server.create w_sim;
    tx_time = { seconds = 0. };
    arrival = { seconds = 0. };
    rng = Random.State.make [| seed |];
    lbl;
    taps = [];
    next_tap = 0;
    drop_rate = 0.;
    dup_rate = 0.;
    fault_hook = None;
    down = false;
    blocked = Hashtbl.create 8;
    frame_count = 0;
    n_frames = 0;
    n_delivered = 0;
    n_dropped = 0;
    n_duplicated = 0;
    n_corrupted = 0;
    n_delayed = 0;
    n_partitioned = 0;
    n_bytes = 0;
  }

let sim w = w.w_sim
let bandwidth_bps _ = bandwidth

let mirror w f =
  match w.lbl with None -> () | Some l -> Stats.tick (f l)

let accept_all _ = true

let attach ?(accepts = accept_all) w ~recv =
  let tap = { tap_id = w.next_tap; accepts; recv } in
  w.next_tap <- w.next_tap + 1;
  w.taps <- tap :: w.taps;
  tap

(* CRC (4) + preamble (8) + inter-frame gap (12), with the 64-byte
   minimum applying to header+payload+CRC. *)
let on_wire_bytes len = max (len + 4) 64 + 20

let check_rate what r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Wire.%s: %g is not in [0, 1]" what r)

let set_drop_rate w r =
  check_rate "set_drop_rate" r;
  w.drop_rate <- r

let set_dup_rate w r =
  check_rate "set_dup_rate" r;
  w.dup_rate <- r

let set_fault_hook w h = w.fault_hook <- h

(* Partitions.  Blocking is directional and per (source, destination)
   attachment pair; a network partition blocks both directions of every
   pair crossing the cut.  Suppressed deliveries are counted as
   [partitioned], not [dropped] — a partition is topology, not noise. *)
let block_pair w ~from ~to_ =
  Hashtbl.replace w.blocked (from.tap_id, to_.tap_id) ()

let unblock_pair w ~from ~to_ =
  Hashtbl.remove w.blocked (from.tap_id, to_.tap_id)

let pair_blocked w ~from ~to_ =
  Hashtbl.mem w.blocked (from.tap_id, to_.tap_id)

(* Whole-wire cut: an unplugged access link.  Suppressed deliveries
   count as [partitioned] like any other topology fault; the
   transmitter still serializes (it cannot see the far end is gone). *)
let set_down w d = w.down <- d
let is_down w = w.down

let stats w =
  {
    frames = w.n_frames;
    delivered = w.n_delivered;
    dropped = w.n_dropped;
    duplicated = w.n_duplicated;
    corrupted = w.n_corrupted;
    delayed = w.n_delayed;
    partitioned = w.n_partitioned;
    bytes = w.n_bytes;
  }

let reset_stats w =
  w.n_frames <- 0;
  w.n_delivered <- 0;
  w.n_dropped <- 0;
  w.n_duplicated <- 0;
  w.n_corrupted <- 0;
  w.n_delayed <- 0;
  w.n_partitioned <- 0;
  w.n_bytes <- 0

let flip w rate = rate > 0. && Random.State.float w.rng 1. < rate

let draw_faults w =
  if flip w w.drop_rate then [ Drop ]
  else if flip w w.dup_rate then [ Duplicate ]
  else []

let invert c = Char.chr (Char.code c lxor 0xff)

(* Hand the frame to every tap but [from], [w.arrival] from now.  The
   first of [copies] is [m], which carries any corruption (it damages
   the original transmission); a Duplicate is an independent clean
   copy of [msg].  [delivered] counts every copy handed to a tap, but
   only a copy the tap's filter accepts costs an event: the filter
   judges each copy by its own bytes.  The event carries the tap's
   [recv] and the copy, with no closure and no cancel handle. *)
let rec deliver w ~from ~copies msg m = function
  | [] -> ()
  | tap :: taps ->
      if tap.tap_id <> from.tap_id then
        if
          w.down
          (* Skip the lookup, and its key tuple, when nothing is blocked. *)
          || Hashtbl.length w.blocked > 0
             && Hashtbl.mem w.blocked (from.tap_id, tap.tap_id)
        then begin
          w.n_partitioned <- w.n_partitioned + 1;
          mirror w (fun l -> l.l_partitioned)
        end
        else
          for copy = 1 to copies do
            let m = if copy = 1 then m else msg in
            w.n_delivered <- w.n_delivered + 1;
            mirror w (fun l -> l.l_delivered);
            if tap.accepts m then Sim.call_after w.w_sim w.arrival tap.recv m
          done;
      deliver w ~from ~copies msg m taps

(* Apply [faults] in order to one transmission of [msg], then deliver
   it.  The caller has already handled [Drop], and an empty frame has
   no byte to corrupt. *)
let rec apply_faults w ~from ~copies ~extra msg m = function
  | [] ->
      w.arrival.seconds <- propagation +. extra;
      deliver w ~from ~copies msg m w.taps
  | Duplicate :: faults ->
      w.n_duplicated <- w.n_duplicated + 1;
      mirror w (fun l -> l.l_duplicated);
      apply_faults w ~from ~copies:(copies + 1) ~extra msg m faults
  | Delay d :: faults ->
      w.n_delayed <- w.n_delayed + 1;
      mirror w (fun l -> l.l_delayed);
      apply_faults w ~from ~copies ~extra:(extra +. d) msg m faults
  | Corrupt off :: faults when Msg.length msg > 0 ->
      let m = Msg.map_byte (off mod Msg.length msg) invert m in
      w.n_corrupted <- w.n_corrupted + 1;
      mirror w (fun l -> l.l_corrupted);
      apply_faults w ~from ~copies ~extra msg m faults
  | (Drop | Corrupt _) :: faults ->
      apply_faults w ~from ~copies ~extra msg m faults

let transmit w ~from msg =
  let n = w.frame_count in
  w.frame_count <- n + 1;
  let wire_bytes = on_wire_bytes (Msg.length msg) in
  w.n_frames <- w.n_frames + 1;
  w.n_bytes <- w.n_bytes + wire_bytes;
  mirror w (fun l -> l.l_frames);
  (match w.lbl with
  | None -> ()
  | Some l -> Stats.bump l.l_bytes wire_bytes);
  w.tx_time.seconds <- float_of_int (wire_bytes * 8) /. bandwidth;
  Sim.Server.hold w.medium w.tx_time;
  let faults =
    match w.fault_hook with
    | Some hook -> hook n msg
    | None -> draw_faults w
  in
  if List.mem Drop faults then begin
    w.n_dropped <- w.n_dropped + 1;
    mirror w (fun l -> l.l_dropped)
  end
  else apply_faults w ~from ~copies:1 ~extra:0. msg msg faults
