open Xkernel
module S = Wire_fmt.Select

type t = {
  host : Host.t;
  channel : Channel.t;
  delegate : Addr.Ip.t;
  p : Proto.t;
  sel : Select.t; (* ordinary selector used as our client toward the delegate *)
  mutable client : Select.client option;
  stats : Stats.t;
}

let forwarded t = Stats.get t.stats "forwarded"

let client t =
  match t.client with
  | Some c -> c
  | None ->
      let c = Select.connect t.sel ~server:t.delegate in
      t.client <- Some c;
      c

(* A request dropped unanswered: counted, and the channel session it
   came on told that no reply will come. *)
let drop t ~lower counter =
  Stats.incr t.stats counter;
  ignore (Proto.session_control lower Control.No_reply)

(* Relay: read just enough of the SELECT header to re-issue the call
   toward the delegate, then send the delegate's answer back on the
   channel session the original request arrived on. *)
let input t ~lower msg =
  Machine.charge t.host.Host.mach Machine.Header S.bytes;
  if Msg.length msg < S.bytes then drop t ~lower "rx-runt"
  else if S.typ msg <> S.typ_request then drop t ~lower "rx-unexpected"
  else begin
    let command = S.command msg in
    let body = Msg.drop msg S.bytes in
    Stats.incr t.stats "forwarded";
    let reply_hdr status = S.encode ~typ:S.typ_reply ~command ~status in
    let reply =
      match Select.call (client t) ~command body with
      | Ok reply_body -> Msg.push reply_body (reply_hdr S.status_ok)
      | Error (Rpc_error.Remote status) -> Msg.of_string (reply_hdr status)
      | Error
          ( Rpc_error.Timeout | Rpc_error.Rebooted | Rpc_error.Busy
          | Rpc_error.Wrong_shard _ ) ->
          Msg.of_string (reply_hdr S.status_error)
    in
    Machine.charge t.host.Host.mach Machine.Header S.bytes;
    Proto.push lower reply
  end

let serve t =
  Proto.open_enable (Channel.proto t.channel) ~upper:t.p
    (Part.ip_enable Select.proto_num)

let create ~host ~channel ~delegate =
  let p = Proto.create ~host ~name:"SELECT-FWD" () in
  let sel = Select.create ~host ~channel in
  let t =
    {
      host;
      channel;
      delegate;
      p;
      sel;
      client = None;
      stats = Proto.stats p;
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Select_fwd: server only");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Select_fwd: use serve");
      open_done = (fun ~upper:_ _ -> invalid_arg "Select_fwd: server only");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control = (fun req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ Channel.proto channel ];
  t
