open Xkernel

let proto_num = 94

type t = {
  host : Host.t;
  channel : Channel.t;
  p : Proto.t;
  mutable on_receive : (Addr.Ip.t -> Msg.t -> unit) option;
  sessions : (int, Proto.session) Hashtbl.t;
  stats : Stats.t;
}

let session t ~dest =
  match Hashtbl.find_opt t.sessions (Addr.Ip.to_int dest) with
  | Some s -> s
  | None ->
      let part =
        Part.v
          ~local:
            [ Part.Ip t.host.Host.ip; Part.Ip_proto proto_num; Part.Channel 0 ]
          ~remotes:[ [ Part.Ip dest; Part.Ip_proto proto_num ] ]
          ()
      in
      let s = Proto.open_ (Channel.proto t.channel) ~upper:t.p part in
      Hashtbl.replace t.sessions (Addr.Ip.to_int dest) s;
      s

let send t ~dest msg =
  Stats.incr t.stats "tx";
  match Channel.call t.channel (session t ~dest) msg with
  | Ok _empty_ack -> Ok ()
  | Error e -> Error e

(* Server side: deliver the datagram up and answer with an empty reply,
   which is the acknowledgement. *)
let input t ~lower msg =
  Stats.incr t.stats "rx";
  (match (t.on_receive, Proto.session_control lower Control.Get_peer_host) with
  | Some f, Control.R_ip peer -> f peer msg
  | _ -> ());
  Proto.push lower Msg.empty

let listen t f =
  t.on_receive <- Some f;
  Proto.open_enable (Channel.proto t.channel) ~upper:t.p
    (Part.ip_enable proto_num)

let create ~host ~channel =
  let p = Proto.create ~host ~name:"RDGRAM" () in
  let t =
    {
      host;
      channel;
      p;
      on_receive = None;
      sessions = Hashtbl.create 4;
      stats = Proto.stats p;
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Rdgram: use send");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Rdgram: use listen");
      open_done = (fun ~upper:_ _ -> invalid_arg "Rdgram: use send");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control = (fun req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ Channel.proto channel ];
  t
