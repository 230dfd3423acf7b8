open Xkernel
module H = Wire_fmt.Sprite

let max_frags = 16
let flag_error = 0x10 (* reply carries an error status in [command] *)

(* Sprite's 1 KB fragments and fixed set of 8 channels per client. *)
let frag_size = 1024
let n_channels = 8

(* The one message a session reassembles at a time; [r_seq] 0: none. *)
type reasm = {
  mutable r_seq : int;
  mutable pieces : Msg.t option array;
  mutable have : int;
}

(* One message cut into fragments, with what every fragment's header
   carries; fragment [i] is [f_pieces.(i)], at offset [i * f_chunk]. *)
type frags = {
  f_flags : int;
  f_clnt : Addr.Ip.t;
  f_srvr : Addr.Ip.t;
  f_chan : int;
  f_seq : int;
  f_command : int;
  f_boot : int;
  f_chunk : int;
  f_pieces : Msg.t array;
}

type outstanding = {
  iv : (Msg.t, Rpc_error.t) result Sim.Ivar.ivar;
  frags : frags;
  mutable acked_mask : int; (* fragments the server has acknowledged *)
  mutable timer : Event.t option;
  mutable tries_left : int;
  mutable patient : bool;
}

(* Client-role session: one per (server, channel). *)
type csess = {
  c_peer : Addr.Ip.t;
  c_chan : int;
  c_lower : Proto.session;
  amo : Amo.client;
  mutable out : outstanding option;
  rep_reasm : reasm;
}

(* Server-role session: one per (client, channel). *)
type ssess = {
  s_peer : Addr.Ip.t;
  s_chan : int;
  mutable s_lower : Proto.session;
  s_amo : Amo.server;
  mutable cached_reply : frags option; (* while [s_amo] says one is cached *)
  req_reasm : reasm;
}

let proto_num = 91

type t = {
  host : Host.t;
  lower : Proto.t;
  p : Proto.t;
  clients : (int * int, csess) Hashtbl.t; (* (server, chan) *)
  servers : (int * int, ssess) Hashtbl.t; (* (client, chan) *)
  handlers : (int, Select.handler) Hashtbl.t;
  stats : Stats.t;
  span : Sim.duration; (* the timeout being armed, written just before *)
}

type client = {
  cl_t : t;
  free : csess Queue.t;
  free_sem : Sim.Semaphore.sem;
}

let proto t = t.p
let full_mask n = (1 lsl n) - 1

let fragment t ~flags ~peer ~chan ~seq ~command ~as_client msg =
  let len = Msg.length msg in
  let chunk = max frag_size ((len + max_frags - 1) / max_frags) in
  let num = max 1 ((len + chunk - 1) / chunk) in
  let clnt, srvr =
    if as_client then (t.host.Host.ip, peer) else (peer, t.host.Host.ip)
  in
  {
    f_flags = flags;
    f_clnt = clnt;
    f_srvr = srvr;
    f_chan = chan;
    f_seq = seq;
    f_command = command;
    f_boot = t.host.Host.boot_id;
    f_chunk = chunk;
    f_pieces =
      Array.init num (fun i ->
          let off = i * chunk in
          let this = min chunk (len - off) in
          if this <= 0 then Msg.empty else Msg.sub msg off this);
  }

(* Fragment [i] of [fr], its header written as it is sent; [please_ack]
   marks a retransmission. *)
let send_frag ?(please_ack = false) t lower_sess fr i =
  Machine.charge_all t.host.Host.mach
    [ (Machine.Header, H.bytes); (Machine.Frag_bookkeep, 0) ];
  Stats.incr t.stats "tx-frag";
  let piece = fr.f_pieces.(i) in
  let flags =
    if please_ack then fr.f_flags lor Wire_fmt.Flags.please_ack
    else fr.f_flags
  in
  Proto.push lower_sess
    (Msg.push piece
       (H.encode ~flags ~clnt:fr.f_clnt ~srvr:fr.f_srvr ~channel:fr.f_chan
          ~seq:fr.f_seq ~num:(Array.length fr.f_pieces) ~mask:(1 lsl i)
          ~command:fr.f_command ~boot_id:fr.f_boot ~len:(Msg.length piece)
          ~off:(i * fr.f_chunk)))

let send_all t lower_sess fr =
  Array.iteri (fun i _ -> send_frag t lower_sess fr i) fr.f_pieces

let frag_index m =
  let num = H.num_frags m and mask = H.frag_mask m in
  let rec find i =
    if i >= num then None else if mask = 1 lsl i then Some i else find (i + 1)
  in
  if num >= 1 && num <= max_frags then find 0 else None

let new_reasm () = { r_seq = 0; pieces = [||]; have = 0 }

let clear r =
  r.r_seq <- 0;
  r.pieces <- [||];
  r.have <- 0

(* Fragment [m], payload [piece], of message [seq] into [r], which
   drops any other message: [None] if malformed, else whether the piece
   was new and, once complete, the whole message. *)
let reassemble t r ~seq m piece =
  let num = H.num_frags m in
  match frag_index m with
  | Some idx when r.r_seq <> seq || Array.length r.pieces = num ->
      if r.r_seq <> seq then begin
        r.r_seq <- seq;
        r.pieces <- Array.make num None;
        r.have <- 0
      end;
      let fresh = r.pieces.(idx) = None in
      if fresh then begin
        r.pieces.(idx) <- Some piece;
        r.have <- r.have lor (1 lsl idx)
      end;
      Some
        ( fresh,
          if r.have <> full_mask num then None
          else
            Some
              (Array.fold_left
                 (fun acc p -> Msg.append acc (Option.get p))
                 Msg.empty r.pieces) )
  | _ ->
      Stats.incr t.stats "rx-malformed";
      None

(* --- client side ------------------------------------------------- *)

(* Sprite's fixed timeouts: 20 ms for a single-fragment call plus 3 ms
   per fragment, 5 retries. *)
let base_timeout = 0.02
let per_frag_timeout = 0.003
let retries = 5

let rpc_timeout nfrags =
  if nfrags <= 1 then base_timeout
  else base_timeout +. (float_of_int nfrags *. per_frag_timeout)

let cancel_timer t (o : outstanding) =
  match o.timer with
  | Some ev ->
      ignore (Event.cancel t.host ev);
      o.timer <- None
  | None -> ()

let complete_call t cs outcome =
  match cs.out with
  | None -> ()
  | Some o ->
      (* Clear the slot before anything that can yield, so a concurrent
         timer firing cannot complete the same call twice. *)
      cs.out <- None;
      Amo.finish cs.amo;
      clear cs.rep_reasm;
      cancel_timer t o;
      Machine.charge_all t.host.Host.mach
        [ (Machine.Semaphore_op, 0); (Machine.Process_switch, 0) ];
      Sim.Ivar.fill o.iv outcome

let rec arm_timer t cs (o : outstanding) timeout =
  t.span.seconds <- timeout;
  o.timer <- Some (Event.schedule t.host t.span timer_fired (t, cs, o))

and timer_fired (t, cs, o) =
  match cs.out with
  | Some o' when o' == o ->
      if o.tries_left <= 0 then complete_call t cs (Error Rpc_error.Timeout)
      else begin
        o.tries_left <- o.tries_left - 1;
        (* Selective retransmission, Sprite style: probe with the first
           unacknowledged fragment and ask for an explicit (partial)
           acknowledgement; the ack's fragment mask tells us exactly
           what to resend. *)
        let n = Array.length o.frags.f_pieces in
        let rec probe i =
          if i < n then
            if (1 lsl i) land o.acked_mask = 0 then begin
              Stats.incr t.stats "retransmit";
              send_frag ~please_ack:true t cs.c_lower o.frags i
            end
            else probe (i + 1)
        in
        probe 0;
        let timeout =
          if o.patient then base_timeout *. 4. else rpc_timeout 1
        in
        arm_timer t cs o timeout
      end
  | _ -> ()

let start_call t cs ~command msg =
  if cs.out <> None then invalid_arg "Sprite_mono: channel busy";
  let seq = Amo.call cs.amo in
  let frags =
    fragment t ~flags:Wire_fmt.Flags.request ~peer:cs.c_peer ~chan:cs.c_chan
      ~seq ~command ~as_client:true msg
  in
  let nfrags = Array.length frags.f_pieces in
  if nfrags > max_frags then invalid_arg "Sprite_mono: message too large";
  let iv = Sim.Ivar.create (Host.sim t.host) in
  Machine.charge t.host.Host.mach Machine.Reasm_lookup 0;
  let o =
    {
      iv;
      frags;
      acked_mask = 0;
      timer = None;
      tries_left = retries;
      patient = false;
    }
  in
  cs.out <- Some o;
  Stats.incr t.stats "call-tx";
  Machine.charge_all t.host.Host.mach
    [ (Machine.Semaphore_op, 0); (Machine.Process_switch, 0) ];
  send_all t cs.c_lower frags;
  arm_timer t cs o (rpc_timeout nfrags);
  iv

(* [m] is the received frame, header in front; [piece] its payload. *)
let handle_reply t cs m piece =
  let seq = H.sequence_num m in
  match cs.out with
  | None -> Stats.incr t.stats "stale-rx"
  | Some o -> (
      match
        Amo.client_reply cs.amo ~seq ~boot:(H.boot_id m)
          ~retransmitted:(o.tries_left < retries)
      with
      | Amo.Stale -> Stats.incr t.stats "stale-rx"
      | Amo.Rebooted -> complete_call t cs (Error Rpc_error.Rebooted)
      | Amo.Accept -> (
          if H.flags m land flag_error <> 0 then
            complete_call t cs (Error (Rpc_error.Remote (H.command m)))
          else
            match reassemble t cs.rep_reasm ~seq m piece with
            | Some (_, Some whole) ->
                Stats.incr t.stats "reply-rx";
                complete_call t cs (Ok whole)
            | _ -> ()))

let handle_ack t cs m =
  match cs.out with
  | Some o when Amo.outstanding cs.amo ~seq:(H.sequence_num m) ->
      Stats.incr t.stats "ack-rx";
      o.acked_mask <- o.acked_mask lor H.frag_mask m;
      let all = full_mask (Array.length o.frags.f_pieces) in
      if o.acked_mask land all = all then
        (* The server has the whole request and is working on it. *)
        o.patient <- true
      else
        (* Resend exactly what the partial ack reports missing. *)
        Array.iteri
          (fun i _ ->
            if (1 lsl i) land o.acked_mask = 0 then begin
              Stats.incr t.stats "retransmit";
              send_frag t cs.c_lower o.frags i
            end)
          o.frags.f_pieces
  | _ -> Stats.incr t.stats "stale-rx"

(* --- server side ------------------------------------------------- *)

let send_ack t ss ~seq ~mask =
  Stats.incr t.stats "ack-tx";
  let boot_id = t.host.Host.boot_id in
  Machine.charge t.host.Host.mach Machine.Header H.bytes;
  Proto.push ss.s_lower
    (Msg.of_string
       (H.encode ~flags:Wire_fmt.Flags.ack ~clnt:ss.s_peer ~srvr:t.host.Host.ip
          ~channel:ss.s_chan ~seq ~num:0 ~mask ~command:0 ~boot_id ~len:0
          ~off:0))

(* Runs the procedure in the fiber of the request's last fragment; its
   reply is sent only if no newer request or client boot came meanwhile. *)
let execute t ss ~seq ~command body =
  Amo.execute ss.s_amo ~seq;
  ss.cached_reply <- None;
  clear ss.req_reasm;
  Machine.charge t.host.Host.mach Machine.Semaphore_op 0;
  Stats.incr t.stats "handled";
  let reply_body, flags, rcommand =
    match Hashtbl.find_opt t.handlers command with
    | None -> (Msg.empty, Wire_fmt.Flags.reply lor flag_error, 1)
    | Some h -> (
        match h body with
        | Ok reply -> (reply, Wire_fmt.Flags.reply, command)
        | Error status -> (Msg.empty, Wire_fmt.Flags.reply lor flag_error, status))
  in
  match Amo.reply ss.s_amo with
  | Amo.Send_reply ->
      let frags =
        fragment t ~flags ~peer:ss.s_peer ~chan:ss.s_chan
          ~seq:ss.s_amo.Amo.last_seq ~command:rcommand ~as_client:false
          reply_body
      in
      ss.cached_reply <- Some frags;
      Stats.incr t.stats "reply-tx";
      send_all t ss.s_lower frags
  | _ -> Stats.incr t.stats "reply-late"

let handle_request t ss ~lower m piece =
  ss.s_lower <- lower;
  let seq = H.sequence_num m and num = H.num_frags m in
  match Amo.request ss.s_amo ~boot:(H.boot_id m) ~seq with
  | Amo.Resend_cached ->
      Stats.incr t.stats "dup-req";
      Stats.incr t.stats "cached-reply-tx";
      send_all t ss.s_lower (Option.get ss.cached_reply)
  | Amo.Ack ->
      Stats.incr t.stats "dup-req";
      send_ack t ss ~seq ~mask:(full_mask num)
  | Amo.Hold -> Stats.incr t.stats "req-held"
  | Amo.Drop_stale | Amo.Send_reply | Amo.Discard_late ->
      Stats.incr t.stats "stale-rx"
  | Amo.Execute -> (
      match reassemble t ss.req_reasm ~seq m piece with
      | Some (_, Some whole) -> execute t ss ~seq ~command:(H.command m) whole
      | Some (fresh, None) ->
          (* A retransmitted fragment of a partially received request:
             tell the client what we already have so it resends only the
             rest (Sprite's partial ack). *)
          if (not fresh) && H.flags m land Wire_fmt.Flags.please_ack <> 0 then
            send_ack t ss ~seq ~mask:ss.req_reasm.have
      | None -> ())

(* --- demux -------------------------------------------------------- *)

let client_session t ~server ~chan ~remote =
  match Hashtbl.find_opt t.clients (Addr.Ip.to_int server, chan) with
  | Some cs -> cs
  | None ->
      let part =
        Part.v
          ~local:[ Part.Ip t.host.Host.ip; Part.Ip_proto proto_num ]
          ~remotes:[ remote ]
          ()
      in
      let lower = Proto.open_ t.lower ~upper:t.p part in
      (* A server's boot id is a property of its host, shared by all
         channels toward it: channel 0 holds it. *)
      let peer =
        match Hashtbl.find_opt t.clients (Addr.Ip.to_int server, 0) with
        | Some cs0 -> cs0.amo.Amo.peer
        | None -> Amo.peer ()
      in
      let cs =
        {
          c_peer = server;
          c_chan = chan;
          c_lower = lower;
          amo = Amo.client peer ~boot:t.host.Host.boot_id;
          out = None;
          rep_reasm = new_reasm ();
        }
      in
      Hashtbl.replace t.clients (Addr.Ip.to_int server, chan) cs;
      cs

let server_session t ~client_ip ~chan ~lower =
  match Hashtbl.find_opt t.servers (Addr.Ip.to_int client_ip, chan) with
  | Some ss -> ss
  | None ->
      let ss =
        {
          s_peer = client_ip;
          s_chan = chan;
          s_lower = lower;
          s_amo = Amo.server ();
          cached_reply = None;
          req_reasm = new_reasm ();
        }
      in
      Hashtbl.replace t.servers (Addr.Ip.to_int client_ip, chan) ss;
      ss

let input t ~lower msg =
  Machine.charge_all t.host.Host.mach
    [
      (Machine.Header, H.bytes);
      (Machine.Frag_bookkeep, 0);
      (Machine.Reasm_lookup, 0);
      (Machine.Semaphore_op, 0);
    ];
  if Msg.length msg < H.bytes then Stats.incr t.stats "rx-runt"
  else
    let len = H.data1_sz msg in
    let piece =
      if Msg.length msg - H.bytes >= len then Msg.sub msg H.bytes len
      else Msg.drop msg H.bytes
    in
    let f = H.flags msg in
    if f land Wire_fmt.Flags.request <> 0 then
      let ss =
        server_session t ~client_ip:(H.clnt_host msg) ~chan:(H.channel msg)
          ~lower
      in
      handle_request t ss ~lower msg piece
    else begin
      match
        Hashtbl.find_opt t.clients
          (Addr.Ip.to_int (H.srvr_host msg), H.channel msg)
      with
      | None -> Stats.incr t.stats "rx-unbound"
      | Some cs ->
          if f land Wire_fmt.Flags.reply <> 0 then handle_reply t cs msg piece
          else if f land Wire_fmt.Flags.ack <> 0 then handle_ack t cs msg
          else Stats.incr t.stats "rx-malformed"
    end

(* A crash of this host, from its {!Host.at_reboot} hook: outside any
   fiber, so nothing here charges or blocks.  Outstanding calls end with
   [Rebooted], and both roles' sessions are reset in place. *)
let crash t =
  Stats.incr t.stats "crash-reset";
  Hashtbl.iter
    (fun _ cs ->
      (match cs.out with
      | Some o ->
          cs.out <- None;
          Option.iter (fun ev -> ignore (Event.abort ev)) o.timer;
          Sim.Ivar.fill o.iv (Error Rpc_error.Rebooted)
      | None -> ());
      clear cs.rep_reasm;
      Amo.reset_client cs.amo ~boot:t.host.Host.boot_id)
    t.clients;
  Hashtbl.iter
    (fun _ ss ->
      Amo.reset_server ss.s_amo;
      ss.cached_reply <- None;
      clear ss.req_reasm)
    t.servers

(* --- public API ---------------------------------------------------- *)

let connect t ~server ?remote () =
  let remote =
    Option.value remote
      ~default:[ Part.Ip server; Part.Ip_proto proto_num ]
  in
  let free = Queue.create () in
  for chan = 0 to n_channels - 1 do
    Queue.add (client_session t ~server ~chan ~remote) free
  done;
  {
    cl_t = t;
    free;
    free_sem = Sim.Semaphore.create (Host.sim t.host) n_channels;
  }

let call cl ~command msg =
  let t = cl.cl_t in
  Sim.Semaphore.p cl.free_sem;
  let cs = Queue.take cl.free in
  let iv = start_call t cs ~command msg in
  let result = Sim.Ivar.read iv in
  Queue.add cs cl.free;
  Sim.Semaphore.v cl.free_sem;
  result

let register t ~command handler = Hashtbl.replace t.handlers command handler

let serve t ?enable () =
  let local =
    Option.value enable ~default:[ Part.Ip_proto proto_num ]
  in
  Proto.open_enable t.lower ~upper:t.p (Part.v ~local ())

let create ~host ~lower =
  let p = Proto.create ~host ~name:"M.RPC" () in
  let t =
    {
      host;
      lower;
      p;
      clients = Hashtbl.create 16;
      servers = Hashtbl.create 16;
      handlers = Hashtbl.create 16;
      stats = Proto.stats p;
      span = { Sim.seconds = 0. };
    }
  in
  Proto.set_ops p
    {
      Proto.open_ = (fun ~upper:_ _ -> invalid_arg "Sprite_mono: use connect");
      open_enable = (fun ~upper:_ _ -> invalid_arg "Sprite_mono: use serve");
      open_done = (fun ~upper:_ _ -> invalid_arg "Sprite_mono: use serve");
      demux = (fun ~lower msg -> input t ~lower msg);
      p_control =
        (fun req ->
          match req with
          (* Sprite RPC reports that it never pushes more than one
             fragment plus header at a time: it has its own
             fragmentation mechanism (section 3.1). *)
          | Control.Get_max_msg_size ->
              Control.R_int (frag_size + H.bytes)
          | Control.Get_channel_count -> Control.R_int n_channels
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ lower ];
  Host.at_reboot host (fun () -> crash t);
  t
