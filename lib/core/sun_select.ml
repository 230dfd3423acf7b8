open Xkernel

let header_bytes = 13
let status_ok = 0
let status_prog_unavail = 1
let status_proc_unavail = 2

type transaction = {
  x_open : peer:Addr.Ip.t -> Proto.session;
  x_call : Proto.session -> Msg.t -> (Msg.t, Rpc_error.t) result;
  x_serve : upper:Proto.t -> unit;
  x_proto : Proto.t;
}

let over_request_reply rr ~proto_num =
  {
    x_open = (fun ~peer -> Request_reply.session rr ~peer ~upper_proto:proto_num);
    x_call = (fun sess msg -> Request_reply.call rr sess msg);
    x_serve =
      (fun ~upper ->
        Proto.open_enable (Request_reply.proto rr) ~upper
          (Part.v ~local:[ Part.Ip_proto proto_num ] ()));
    x_proto = Request_reply.proto rr;
  }

let over_channel ch ~proto_num =
  {
    x_open =
      (fun ~peer ->
        let host = Proto.host (Channel.proto ch) in
        Proto.open_ (Channel.proto ch) ~upper:(Channel.proto ch)
          (Part.v
             ~local:
               [ Part.Ip host.Host.ip; Part.Ip_proto proto_num; Part.Channel 0 ]
             ~remotes:[ [ Part.Ip peer; Part.Ip_proto proto_num ] ]
             ()));
    x_call = (fun sess msg -> Channel.call ch sess msg);
    x_serve =
      (fun ~upper ->
        Proto.open_enable (Channel.proto ch) ~upper
          (Part.v ~local:[ Part.Ip_proto proto_num ] ()));
    x_proto = Channel.proto ch;
  }

type t = {
  host : Host.t;
  transaction : transaction;
  p : Proto.t;
  handlers : (int * int * int, Select.handler) Hashtbl.t;
  stats : Stats.t;
}

type client = { c_t : t; sess : Proto.session; prog : int; vers : int }

let calls_handled t = Stats.get t.stats "handled"

let encode ~prog ~vers ~proc ~status =
  let b = Bytes.create header_bytes in
  Codec.set_u32 b 0 prog;
  Codec.set_u32 b 4 vers;
  Codec.set_u32 b 8 proc;
  Codec.set_u8 b 12 status;
  Bytes.unsafe_to_string b

let connect t ~server ~prog ~vers =
  { c_t = t; sess = t.transaction.x_open ~peer:server; prog; vers }

let call cl ~proc msg =
  let t = cl.c_t in
  Stats.incr t.stats "call";
  Machine.charge_all t.host.Host.mach
    [ (Machine.Layer_crossing, 0); (Machine.Header, header_bytes) ];
  let hdr = encode ~prog:cl.prog ~vers:cl.vers ~proc ~status:status_ok in
  match t.transaction.x_call cl.sess (Msg.push msg hdr) with
  | Error e -> Error e
  | Ok reply -> (
      Machine.charge_all t.host.Host.mach
        [ (Machine.Layer_crossing, 0); (Machine.Header, header_bytes) ];
      if Msg.length reply < header_bytes then
        Error (Rpc_error.Remote status_proc_unavail)
      else
        match Msg.u8 reply 12 (* status *) with
        | 0 -> Ok (Msg.drop reply header_bytes)
        | status -> Error (Rpc_error.Remote status))

let register t ~prog ~vers ~proc handler =
  Hashtbl.replace t.handlers (prog, vers, proc) handler

let input t ~lower msg =
  Machine.charge t.host.Host.mach Machine.Header header_bytes;
  if Msg.length msg < header_bytes then Stats.incr t.stats "rx-runt"
  else
    let prog = Msg.u32 msg 0 and vers = Msg.u32 msg 4 in
    let proc = Msg.u32 msg 8 in
    let body = Msg.drop msg header_bytes in
    Stats.incr t.stats "handled";
    let reply_body, status =
      match Hashtbl.find_opt t.handlers (prog, vers, proc) with
      | Some h -> (
          match h body with
          | Ok reply -> (reply, status_ok)
          | Error s -> (Msg.empty, s))
      | None ->
          let prog_known =
            Hashtbl.fold
              (fun (p, v, _) _ acc -> acc || (p = prog && v = vers))
              t.handlers false
          in
          (Msg.empty, if prog_known then status_proc_unavail else status_prog_unavail)
    in
      Machine.charge t.host.Host.mach Machine.Header header_bytes;
      Proto.push lower (Msg.push reply_body (encode ~prog ~vers ~proc ~status))

let serve t = t.transaction.x_serve ~upper:t.p

let create ~host ~transaction =
  let p = Proto.create ~host ~name:"SUN_SELECT" () in
  let t =
    { host; transaction; p; handlers = Hashtbl.create 16; stats = Proto.stats p }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Sun_select: use connect");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Sun_select: use serve");
      open_done = (fun ~upper:_ _ -> invalid_arg "Sun_select: use connect");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control = (fun req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ transaction.x_proto ];
  t
