open Xkernel
module S = Wire_fmt.Select

type handler = Msg.t -> (Msg.t, int) result

let proto_num = 90

type t = {
  host : Host.t;
  channel : Channel.t;
  p : Proto.t;
  handlers : (int, handler) Hashtbl.t;
  stats : Stats.t;
  (* Sharding (off unless [enable_sharding] is called): which replica
     index this server is, and the shard map it last installed. *)
  mutable shard_self : int option;
  mutable shard_map : Shard_map.t option;
  (* Per-call counters, resolved once at create time (hot path). *)
  c_call : Stats.counter;
  c_handled : Stats.counter;
}

(* The free channels are a FIFO ring: a call takes the channel that has
   been free longest and puts it back at the tail, with no cell per
   call.  [free_sem] admits at most as many callers as there are
   channels, so the ring never overflows. *)
type client = {
  c_t : t;
  free : Proto.session array;
  mutable free_head : int; (* taken so far *)
  mutable free_tail : int; (* returned so far, counting the first fill *)
  free_sem : Sim.Semaphore.sem;
}

let proto t = t.p

let connect t ~server =
  let n = Channel.n_channels t.channel in
  let free =
    Array.init n (fun chan ->
        let part =
          Part.v
            ~local:
              [
                Part.Ip t.host.Host.ip;
                Part.Ip_proto proto_num;
                Part.Channel chan;
              ]
            ~remotes:[ [ Part.Ip server; Part.Ip_proto proto_num ] ]
            ()
        in
        Proto.open_ (Channel.proto t.channel) ~upper:t.p part)
  in
  {
    c_t = t;
    free;
    free_head = 0;
    free_tail = n;
    free_sem = Sim.Semaphore.create (Host.sim t.host) n;
  }

let free_channels c = c.free_tail - c.free_head

let take_channel c =
  let s = c.free.(c.free_head mod Array.length c.free) in
  c.free_head <- c.free_head + 1;
  s

let return_channel c s =
  c.free.(c.free_tail mod Array.length c.free) <- s;
  c.free_tail <- c.free_tail + 1

let call c ?expires ?shard ~command msg =
  let t = c.c_t in
  (* Choose one of the existing channels; block if none is available. *)
  Sim.Semaphore.p c.free_sem;
  let chan_sess = take_channel c in
  Stats.tick t.c_call;
  Machine.charge_all t.host.Host.mach
    [
      (Machine.Semaphore_op, 0);
      (Machine.Layer_crossing, 0);
      (Machine.Header, S.bytes);
    ];
  let typ =
    match shard with None -> S.typ_request | Some _ -> S.typ_request_sharded
  in
  let hdr = S.encode ~typ ~command ~status:S.status_ok in
  let request =
    match shard with
    | None -> Msg.push msg hdr
    | Some stamp ->
        (* Shard-routed: the stamp rides between header and body so an
           ex-owner can answer wrong-shard instead of executing. *)
        Machine.charge t.host.Host.mach Machine.Header S.stamp_bytes;
        Msg.push (Msg.push msg (S.encode_stamp stamp)) hdr
  in
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"SELECT"
    ~dir:`Send request;
  let result = Channel.call ?expires t.channel chan_sess request in
  return_channel c chan_sess;
  Sim.Semaphore.v c.free_sem;
  Machine.charge t.host.Host.mach Machine.Layer_crossing 0;
  match result with
  | Error e -> Error e
  | Ok reply -> (
      Machine.charge t.host.Host.mach Machine.Header S.bytes;
      let n = Msg.length reply in
      if n < S.bytes then Error (Rpc_error.Remote S.status_error)
      else
        let status = S.status reply in
        if S.typ reply <> S.typ_reply then Error (Rpc_error.Remote status)
        else if status = S.status_ok then Ok (Msg.drop reply S.bytes)
        else if status = S.status_wrong_shard then
          (* The server answered but disowned the shard: its newer map
             version rides in the body so the caller can refresh and
             re-route. *)
          Error
            (Rpc_error.Wrong_shard
               (if n < S.bytes + 4 then 0 else S.wrong_shard_version reply))
        else Error (Rpc_error.Remote status))

let register t ~command handler = Hashtbl.replace t.handlers command handler

(* Ownership check for a shard-stamped request: refuse only when this
   server's installed map both disowns the shard {e and} is strictly
   newer than the stamp's generation — a stale client that must refresh.
   When the stamp is current (or newer than us), serve it even if we are
   not the owner: the client is failing over around a peer it could not
   reach, and disagreeing with it here would turn every failover into a
   livelock. *)
let reject_shard t ~shard ~epoch ~version =
  match (t.shard_self, t.shard_map) with
  | Some self, Some m
    when shard >= 0
         && shard < Shard_map.shard_count m
         && Shard_map.owner m ~shard <> self
         && Shard_map.newer_than m ~epoch ~version ->
      Some (Shard_map.version m)
  | _ -> None

(* A request dropped unanswered: counted, and the channel session it
   came on told that no reply will come, so it takes the next one. *)
let drop t ~lower counter =
  Stats.incr t.stats counter;
  ignore (Proto.session_control lower Control.No_reply)

(* Server: map the command onto a procedure, run it, reply through the
   channel session the request arrived on. *)
let input t ~lower msg =
  Machine.charge t.host.Host.mach Machine.Header S.bytes;
  Trace.packet (Host.sim t.host) ~host:t.host.Host.name ~proto:"SELECT"
    ~dir:`Recv msg;
  if Msg.length msg < S.bytes then drop t ~lower "rx-runt"
  else
    let typ = S.typ msg and command = S.command msg in
    let sharded = typ = S.typ_request_sharded in
    if sharded then
      Machine.charge t.host.Host.mach Machine.Header S.stamp_bytes;
    let hdr_len = if sharded then S.bytes + S.stamp_bytes else S.bytes in
    if (not sharded) && typ <> S.typ_request then drop t ~lower "rx-unexpected"
    else if Msg.length msg < hdr_len then drop t ~lower "rx-malformed"
    else if
      (* Last call before the procedure's CPU is charged: a
         request whose propagated deadline lapsed while it queued
         below us is dropped, and the doomed reply suppressed —
         the caller has already given up on it. *)
      match Proto.session_control lower Control.Get_rx_deadline with
      | Control.R_float e -> e >= 0. && e <= Sim.now (Host.sim t.host)
      | _ -> false
    then drop t ~lower "deadline-expired-server"
    else begin
      let reply_body, status =
        match
          if sharded then
            reject_shard t ~shard:(S.shard msg) ~epoch:(S.epoch msg)
              ~version:(S.version msg)
          else None
        with
        | Some version ->
            Stats.incr t.stats "wrong-shard-tx";
            ( Msg.of_string (S.encode_wrong_shard ~version),
              S.status_wrong_shard )
        | None -> (
            (* Accepted but not ours: the caller is failing over
               around the owner (or runs a newer map than us).
               The counter is the affinity-loss signal — a static
               map with a dead owner shows it climbing forever,
               a rebalanced one converges back to zero. *)
            (match (t.shard_self, t.shard_map) with
            | Some self, Some m when sharded ->
                let shard = S.shard msg in
                if
                  shard >= 0
                  && shard < Shard_map.shard_count m
                  && Shard_map.owner m ~shard <> self
                then Stats.incr t.stats "foreign-shard-rx"
            | _ -> ());
            Stats.tick t.c_handled;
            Machine.charge t.host.Host.mach Machine.Semaphore_op 0;
            match Hashtbl.find t.handlers command with
            | exception Not_found -> (Msg.empty, S.status_no_command)
            | h -> (
                match h (Msg.drop msg hdr_len) with
                | Ok reply -> (reply, S.status_ok)
                | Error s -> (Msg.empty, s)))
      in
      Machine.charge t.host.Host.mach Machine.Header S.bytes;
      let rhdr = S.encode ~typ:S.typ_reply ~command ~status in
      let reply = Msg.push reply_body rhdr in
      Trace.packet (Host.sim t.host) ~host:t.host.Host.name
        ~proto:"SELECT" ~dir:`Send reply;
      Proto.push lower reply
    end

let serve t =
  Proto.open_enable (Channel.proto t.channel) ~upper:t.p
    (Part.ip_enable proto_num)

(* Same enable, but requests surface in [upper] (an admission layer)
   instead of here; [upper] forwards the survivors with Proto.deliver,
   which lands in our demux as usual. *)
let serve_behind t ~upper =
  Proto.open_enable (Channel.proto t.channel) ~upper (Part.ip_enable proto_num)


let set_shard_gauges t =
  match t.shard_map with
  | None -> ()
  | Some m -> (
      Stats.set t.stats "map-version" (Shard_map.version m);
      match t.shard_self with
      | Some i ->
          Stats.set t.stats "shards-owned" (Shard_map.shards_owned m ~replica:i)
      | None -> ())

let install_shard_map t m =
  let newer =
    match t.shard_map with
    | None -> true
    | Some cur ->
        Shard_map.newer_than m ~epoch:(Shard_map.epoch cur)
          ~version:(Shard_map.version cur)
  in
  if newer then begin
    t.shard_map <- Some m;
    Stats.incr t.stats "map-update-rx";
    set_shard_gauges t;
    Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
      "SELECT installs shard map v%d" (Shard_map.version m)
  end;
  newer

let enable_sharding t ~self =
  if self < 0 then invalid_arg "Select.enable_sharding: self < 0";
  t.shard_self <- Some self;
  set_shard_gauges t

let shard_map_version t =
  match t.shard_map with None -> 0 | Some m -> Shard_map.version m

let create ~host ~channel =
  let p = Proto.create ~host ~name:"SELECT" () in
  let stats = Proto.stats p in
  let t =
    {
      host;
      channel;
      p;
      handlers = Hashtbl.create 16;
      stats;
      shard_self = None;
      shard_map = None;
      c_call = Stats.counter stats "call";
      c_handled = Stats.counter stats "handled";
    }
  in
  Proto.set_ops p
    {
      Proto.open_ =
        (fun ~upper:_ _ -> invalid_arg "Select: use connect/call");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Select: use serve");
      open_done = (fun ~upper:_ _ -> invalid_arg "Select: use serve");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          (* Sprite RPC never hands the layers below more than a 16 KB
             argument plus its own headers; it fragments for itself. *)
          | Control.Get_max_msg_size ->
              Proto.control (Channel.proto t.channel) req
          | Control.Install_map bytes when t.shard_self <> None -> (
              (* The MAP control plane lands here: decode, install iff
                 strictly newer than what we hold. *)
              match Shard_map.decode bytes with
              | None -> Control.Unsupported
              | Some m ->
                  ignore (install_shard_map t m);
                  Control.R_unit)
          | Control.Get_map_version when t.shard_map <> None ->
              Control.R_int (shard_map_version t)
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ Channel.proto channel ];
  t
