open Xkernel

let header_bytes = 5
let kind_request = 1
let kind_reply = 2
let proto_num = 200

(* How long [rtt] waits for the echo. *)
let reply_timeout = { Sim.seconds = 1.0 }

type t = {
  host : Host.t;
  lower : Proto.t;
  max_msg : int;
  port : int option;
  user_level : bool;
  p : Proto.t;
  sessions : (int, Proto.session) Hashtbl.t; (* peer ip *)
  pending : (int, Msg.t Sim.Ivar.ivar) Hashtbl.t; (* seq *)
  mutable next_seq : int;
  stats : Stats.t;
}

(* User-to-user measurements cross the user/kernel boundary once per
   message in each direction (the paper's intro comparison); the
   kernel-to-kernel experiments of section 4 skip this. *)
let boundary t =
  if t.user_level then
    Machine.charge_all t.host.Host.mach
      [ (Machine.Syscall, 0); (Machine.Os_per_message, 0) ]

let proto t = t.p

let encode ~kind ~seq =
  let b = Bytes.create header_bytes in
  Codec.set_u8 b 0 kind;
  Codec.set_u32 b 1 seq;
  Bytes.unsafe_to_string b

let with_port t comps =
  match t.port with Some p -> Part.Port p :: comps | None -> comps

let session_for t ~peer =
  match Hashtbl.find_opt t.sessions (Addr.Ip.to_int peer) with
  | Some s -> s
  | None ->
      let part =
        Part.v
          ~local:
            (with_port t [ Part.Ip t.host.Host.ip; Part.Ip_proto proto_num ])
          ~remotes:[ with_port t [ Part.Ip peer; Part.Ip_proto proto_num ] ]
          ()
      in
      let s = Proto.open_ t.lower ~upper:t.p part in
      Hashtbl.replace t.sessions (Addr.Ip.to_int peer) s;
      s

let send t sess ~kind ~seq payload =
  Machine.charge_all t.host.Host.mach
    [ (Machine.Layer_crossing, 0); (Machine.Header, header_bytes) ];
  Proto.push sess (Msg.push payload (encode ~kind ~seq))

let rtt t ~peer ?(size = 0) () =
  let sess = session_for t ~peer in
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let iv = Sim.Ivar.create (Host.sim t.host) in
  Hashtbl.replace t.pending seq iv;
  let t0 = Sim.now (Host.sim t.host) in
  Stats.incr t.stats "tx";
  boundary t;
  send t sess ~kind:kind_request ~seq (Msg.fill size 'p');
  let result = Sim.Ivar.read_timeout iv reply_timeout in
  Hashtbl.remove t.pending seq;
  match result with
  | Some _ ->
      boundary t;
      Some (Sim.now (Host.sim t.host) -. t0)
  | None -> None

let input t ~lower msg =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
  else
    let kind = Msg.u8 msg 0 and seq = Msg.u32 msg 1 in
    let rest = Msg.drop msg header_bytes in
    if kind = kind_request then begin
      Stats.incr t.stats "echoed";
      boundary t;
      boundary t;
      (* Echo straight back through the session the request arrived
         on — sessions are bidirectional endpoints. *)
      Machine.charge t.host.Host.mach Machine.Header header_bytes;
      Proto.push lower (Msg.push rest (encode ~kind:kind_reply ~seq))
    end
    else begin
      match Hashtbl.find_opt t.pending seq with
      | Some iv when not (Sim.Ivar.is_filled iv) ->
          Stats.incr t.stats "rx";
          Sim.Ivar.fill iv rest
      | _ -> Stats.incr t.stats "rx-stale"
    end

let create ~host ~lower ?(max_msg = 1480) ?port
    ?(user_level = false) () =
  let p = Proto.create ~host ~name:"PROBE" () in
  let t =
    {
      host;
      lower;
      max_msg;
      port;
      user_level;
      p;
      sessions = Hashtbl.create 4;
      pending = Hashtbl.create 8;
      next_seq = 1;
      stats = Proto.stats p;
    }
  in
  let no_sessions _ = invalid_arg "Probe has no upper sessions" in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ part -> no_sessions part);
      open_enable = (fun ~upper:_ _ -> invalid_arg "Probe: open_enable");
      open_done = (fun ~upper:_ part -> no_sessions part);
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          | Control.Get_max_msg_size -> Control.R_int t.max_msg
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ lower ];
  t

let serve t =
  Proto.open_enable t.lower ~upper:t.p
    (Part.v ~local:(with_port t [ Part.Ip_proto proto_num ]) ())
