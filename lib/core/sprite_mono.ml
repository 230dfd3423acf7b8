open Xkernel
module H = Wire_fmt.Sprite

let max_frags = 16
let flag_error = 0x10 (* reply carries an error status in [command] *)

(* Sprite's 1 KB fragments and fixed set of 8 channels per client. *)
let frag_size = 1024
let n_channels = 8

type reasm = {
  pieces : Msg.t option array;
  mutable have : int;
  r_num : int;
  r_command : int;
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
  o_seq : int;
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
  mutable next_seq : int;
  mutable out : outstanding option;
  mutable rep_reasm : (int * reasm) option;
}

(* Server-role session: one per (client, channel). *)
type ssess = {
  s_peer : Addr.Ip.t;
  s_chan : int;
  mutable s_lower : Proto.session;
  mutable last_seq : int;
  mutable client_boot : int;
  mutable cached_reply : frags option;
  mutable busy : bool;
  mutable req_reasm : (int * reasm) option;
}

let proto_num = 91

type t = {
  host : Host.t;
  lower : Proto.t;
  p : Proto.t;
  clients : (int * int, csess) Hashtbl.t; (* (server, chan) *)
  servers : (int * int, ssess) Hashtbl.t; (* (client, chan) *)
  (* Boot ids are a property of the peer host, shared by all channels
     toward it. *)
  server_boots : (int, int) Hashtbl.t;
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

let reasm_step entry idx piece =
  let fresh = entry.pieces.(idx) = None in
  if fresh then begin
    entry.pieces.(idx) <- Some piece;
    entry.have <- entry.have lor (1 lsl idx)
  end;
  let whole =
    if entry.have = full_mask entry.r_num then
      Some
        (Array.fold_left
           (fun acc p -> Msg.append acc (Option.get p))
           Msg.empty entry.pieces)
    else None
  in
  (fresh, whole)

let frag_index m =
  let num = H.num_frags m and mask = H.frag_mask m in
  let rec find i =
    if i >= num then None else if mask = 1 lsl i then Some i else find (i + 1)
  in
  if num >= 1 && num <= max_frags then find 0 else None

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
      cs.rep_reasm <- None;
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
  cs.next_seq <- cs.next_seq + 1;
  let seq = cs.next_seq in
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
      o_seq = seq;
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
  | Some o when seq = o.o_seq -> (
      let peer_key = Addr.Ip.to_int cs.c_peer in
      let boot_id = H.boot_id m in
      let reboot =
        match Hashtbl.find_opt t.server_boots peer_key with
        | Some b when b <> boot_id -> true
        | _ -> false
      in
      Hashtbl.replace t.server_boots peer_key boot_id;
      if reboot && o.tries_left < retries then
        complete_call t cs (Error Rpc_error.Rebooted)
      else if H.flags m land flag_error <> 0 then
        complete_call t cs (Error (Rpc_error.Remote (H.command m)))
      else
        match frag_index m with
        | None -> Stats.incr t.stats "rx-malformed"
        | Some idx -> (
            let num = H.num_frags m in
            let entry =
              match cs.rep_reasm with
              | Some (s, e) when s = seq -> e
              | _ ->
                  let e =
                    {
                      pieces = Array.make num None;
                      have = 0;
                      r_num = num;
                      r_command = H.command m;
                    }
                  in
                  cs.rep_reasm <- Some (seq, e);
                  e
            in
            if entry.r_num <> num then
              Stats.incr t.stats "rx-malformed"
            else
              match reasm_step entry idx piece with
              | _, Some whole ->
                  Stats.incr t.stats "reply-rx";
                  complete_call t cs (Ok whole)
              | _, None -> ()))
  | _ -> Stats.incr t.stats "stale-rx"

let handle_ack t cs m =
  match cs.out with
  | Some o when H.sequence_num m = o.o_seq ->
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

let execute t ss ~seq ~command body =
  ss.last_seq <- seq;
  ss.busy <- true;
  ss.cached_reply <- None;
  ss.req_reasm <- None;
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
  let frags =
    fragment t ~flags ~peer:ss.s_peer ~chan:ss.s_chan ~seq ~command:rcommand
      ~as_client:false reply_body
  in
  ss.cached_reply <- Some frags;
  ss.busy <- false;
  Stats.incr t.stats "reply-tx";
  send_all t ss.s_lower frags

let handle_request t ss ~lower m piece =
  ss.s_lower <- lower;
  let boot_id = H.boot_id m in
  if boot_id <> ss.client_boot then begin
    ss.client_boot <- boot_id;
    ss.last_seq <- 0;
    ss.cached_reply <- None;
    ss.busy <- false;
    ss.req_reasm <- None
  end;
  let seq = H.sequence_num m and num = H.num_frags m in
  if seq < ss.last_seq then Stats.incr t.stats "stale-rx"
  else if seq = ss.last_seq then begin
    Stats.incr t.stats "dup-req";
    match ss.cached_reply with
    | Some frags ->
        Stats.incr t.stats "cached-reply-tx";
        send_all t ss.s_lower frags
    | None -> if ss.busy then send_ack t ss ~seq ~mask:(full_mask num)
  end
  else begin
    match frag_index m with
    | None -> Stats.incr t.stats "rx-malformed"
    | Some idx -> (
        let entry =
          match ss.req_reasm with
          | Some (s, e) when s = seq -> e
          | _ ->
              let e =
                {
                  pieces = Array.make num None;
                  have = 0;
                  r_num = num;
                  r_command = H.command m;
                }
              in
              ss.req_reasm <- Some (seq, e);
              e
        in
        if entry.r_num <> num then Stats.incr t.stats "rx-malformed"
        else
          match reasm_step entry idx piece with
          | _, Some whole -> execute t ss ~seq ~command:entry.r_command whole
          | fresh, None ->
              (* A retransmitted fragment of a partially received
                 request: tell the client what we already have so it
                 resends only the rest (Sprite's partial ack). *)
              if (not fresh) && H.flags m land Wire_fmt.Flags.please_ack <> 0
              then send_ack t ss ~seq ~mask:entry.have)
  end

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
      let cs =
        {
          c_peer = server;
          c_chan = chan;
          c_lower = lower;
          next_seq = 0;
          out = None;
          rep_reasm = None;
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
          last_seq = 0;
          client_boot = 0;
          cached_reply = None;
          busy = false;
          req_reasm = None;
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
      server_boots = Hashtbl.create 4;
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
          | Control.Flush_cache ->
              (* What an actual reboot does to the protocol state. *)
              Hashtbl.reset t.clients;
              Hashtbl.reset t.servers;
              Hashtbl.reset t.server_boots;
              Control.R_unit
          | req -> Stats.control t.stats req);
    };
  Proto.declare_below p [ lower ];
  t
