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

type outstanding = {
  o_seq : int;
  iv : (Msg.t, Rpc_error.t) result Sim.Ivar.ivar;
  frags : (H.t * Msg.t) array;
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
  mutable cached_reply : (H.t * Msg.t) array option;
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
}

type client = {
  cl_t : t;
  free : csess Queue.t;
  free_sem : Sim.Semaphore.sem;
}

let proto t = t.p
let full_mask n = (1 lsl n) - 1
let stat t name = Stats.get t.stats name

let fragment t ~flags ~peer ~chan ~seq ~command ~as_client msg =
  let len = Msg.length msg in
  let chunk = max frag_size ((len + max_frags - 1) / max_frags) in
  let num = max 1 ((len + chunk - 1) / chunk) in
  let clnt, srvr =
    if as_client then (t.host.Host.ip, peer) else (peer, t.host.Host.ip)
  in
  Array.init num (fun i ->
      let off = i * chunk in
      let this = min chunk (len - off) in
      let piece = if this <= 0 then Msg.empty else Msg.sub msg off this in
      ( {
          H.flags;
          clnt_host = clnt;
          srvr_host = srvr;
          channel = chan;
          srvr_process = 0;
          sequence_num = seq;
          num_frags = num;
          frag_mask = 1 lsl i;
          command;
          boot_id = t.host.Host.boot_id;
          data1_sz = Msg.length piece;
          data2_sz = 0;
          data1_off = off;
          data2_off = 0;
        },
        piece ))

let send_frag t lower_sess ((hdr : H.t), piece) =
  Machine.charge t.host.Host.mach
    [ Machine.Header H.bytes; Machine.Frag_bookkeep ];
  Stats.incr t.stats "tx-frag";
  Proto.push lower_sess (Msg.push piece (H.encode hdr))

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

let frag_index (hdr : H.t) =
  let rec find i =
    if i >= hdr.H.num_frags then None
    else if hdr.H.frag_mask = 1 lsl i then Some i
    else find (i + 1)
  in
  if hdr.H.num_frags >= 1 && hdr.H.num_frags <= max_frags then find 0 else None

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
      Machine.charge t.host.Host.mach
        [ Machine.Semaphore_op; Machine.Process_switch ];
      Sim.Ivar.fill o.iv outcome

let rec arm_timer t cs (o : outstanding) timeout =
  o.timer <-
    Some
      (Event.schedule t.host timeout (fun () ->
           match cs.out with
           | Some o' when o' == o ->
               if o.tries_left <= 0 then
                 complete_call t cs (Error Rpc_error.Timeout)
               else begin
                 o.tries_left <- o.tries_left - 1;
                 (* Selective retransmission, Sprite style: probe with
                    the first unacknowledged fragment and ask for an
                    explicit (partial) acknowledgement; the ack's
                    fragment mask tells us exactly what to resend. *)
                 let probe =
                   Array.to_seq o.frags
                   |> Seq.filter (fun ((h : H.t), _) ->
                          h.H.frag_mask land o.acked_mask = 0)
                   |> Seq.uncons
                 in
                 (match probe with
                 | Some (((h : H.t), piece), _) ->
                     Stats.incr t.stats "retransmit";
                     send_frag t cs.c_lower
                       ( { h with
                           H.flags = h.H.flags lor Wire_fmt.Flags.please_ack
                         },
                         piece )
                 | None -> ());
                 let timeout =
                   if o.patient then base_timeout *. 4. else rpc_timeout 1
                 in
                 arm_timer t cs o timeout
               end
           | _ -> ()))

let start_call t cs ~command msg =
  if cs.out <> None then invalid_arg "Sprite_mono: channel busy";
  cs.next_seq <- cs.next_seq + 1;
  let seq = cs.next_seq in
  let frags =
    fragment t ~flags:Wire_fmt.Flags.request ~peer:cs.c_peer ~chan:cs.c_chan
      ~seq ~command ~as_client:true msg
  in
  if Array.length frags > max_frags then invalid_arg "Sprite_mono: message too large";
  let iv = Sim.Ivar.create (Host.sim t.host) in
  Machine.charge_one t.host.Host.mach (Machine.Reasm_lookup);
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
  Machine.charge t.host.Host.mach
    [ Machine.Semaphore_op; Machine.Process_switch ];
  Array.iter (send_frag t cs.c_lower) frags;
  arm_timer t cs o (rpc_timeout (Array.length frags));
  iv

let handle_reply t cs (hdr : H.t) piece =
  match cs.out with
  | Some o when hdr.H.sequence_num = o.o_seq -> (
      let peer_key = Addr.Ip.to_int cs.c_peer in
      let reboot =
        match Hashtbl.find_opt t.server_boots peer_key with
        | Some b when b <> hdr.H.boot_id -> true
        | _ -> false
      in
      Hashtbl.replace t.server_boots peer_key hdr.H.boot_id;
      if reboot && o.tries_left < retries then
        complete_call t cs (Error Rpc_error.Rebooted)
      else if hdr.H.flags land flag_error <> 0 then
        complete_call t cs (Error (Rpc_error.Remote hdr.H.command))
      else
        match frag_index hdr with
        | None -> Stats.incr t.stats "rx-malformed"
        | Some idx -> (
            let entry =
              match cs.rep_reasm with
              | Some (seq, e) when seq = hdr.H.sequence_num -> e
              | _ ->
                  let e =
                    {
                      pieces = Array.make hdr.H.num_frags None;
                      have = 0;
                      r_num = hdr.H.num_frags;
                      r_command = hdr.H.command;
                    }
                  in
                  cs.rep_reasm <- Some (hdr.H.sequence_num, e);
                  e
            in
            if entry.r_num <> hdr.H.num_frags then
              Stats.incr t.stats "rx-malformed"
            else
              match reasm_step entry idx piece with
              | _, Some whole ->
                  Stats.incr t.stats "reply-rx";
                  complete_call t cs (Ok whole)
              | _, None -> ()))
  | _ -> Stats.incr t.stats "stale-rx"

let handle_ack t cs (hdr : H.t) =
  match cs.out with
  | Some o when hdr.H.sequence_num = o.o_seq ->
      Stats.incr t.stats "ack-rx";
      o.acked_mask <- o.acked_mask lor hdr.H.frag_mask;
      if o.acked_mask land full_mask (Array.length o.frags)
         = full_mask (Array.length o.frags)
      then
        (* The server has the whole request and is working on it. *)
        o.patient <- true
      else
        (* Resend exactly what the partial ack reports missing. *)
        Array.iter
          (fun ((h : H.t), piece) ->
            if h.H.frag_mask land o.acked_mask = 0 then begin
              Stats.incr t.stats "retransmit";
              send_frag t cs.c_lower (h, piece)
            end)
          o.frags
  | _ -> Stats.incr t.stats "stale-rx"

(* --- server side ------------------------------------------------- *)

let send_ack t ss ~seq ~mask =
  Stats.incr t.stats "ack-tx";
  let hdr =
    {
      H.flags = Wire_fmt.Flags.ack;
      clnt_host = ss.s_peer;
      srvr_host = t.host.Host.ip;
      channel = ss.s_chan;
      srvr_process = 0;
      sequence_num = seq;
      num_frags = 0;
      frag_mask = mask;
      command = 0;
      boot_id = t.host.Host.boot_id;
      data1_sz = 0;
      data2_sz = 0;
      data1_off = 0;
      data2_off = 0;
    }
  in
  Machine.charge_one t.host.Host.mach (Machine.Header H.bytes);
  Proto.push ss.s_lower (Msg.of_string (H.encode hdr))

let send_reply_frags t ss frags =
  Array.iter (send_frag t ss.s_lower) frags

let execute t ss ~seq ~command body =
  ss.last_seq <- seq;
  ss.busy <- true;
  ss.cached_reply <- None;
  ss.req_reasm <- None;
  Machine.charge_one t.host.Host.mach (Machine.Semaphore_op);
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
  send_reply_frags t ss frags

let handle_request t ss ~lower (hdr : H.t) piece =
  ss.s_lower <- lower;
  if hdr.H.boot_id <> ss.client_boot then begin
    ss.client_boot <- hdr.H.boot_id;
    ss.last_seq <- 0;
    ss.cached_reply <- None;
    ss.busy <- false;
    ss.req_reasm <- None
  end;
  let seq = hdr.H.sequence_num in
  if seq < ss.last_seq then Stats.incr t.stats "stale-rx"
  else if seq = ss.last_seq then begin
    Stats.incr t.stats "dup-req";
    match ss.cached_reply with
    | Some frags ->
        Stats.incr t.stats "cached-reply-tx";
        send_reply_frags t ss frags
    | None ->
        if ss.busy then send_ack t ss ~seq ~mask:(full_mask hdr.H.num_frags)
  end
  else begin
    match frag_index hdr with
    | None -> Stats.incr t.stats "rx-malformed"
    | Some idx -> (
        let entry =
          match ss.req_reasm with
          | Some (s, e) when s = seq -> e
          | _ ->
              let e =
                {
                  pieces = Array.make hdr.H.num_frags None;
                  have = 0;
                  r_num = hdr.H.num_frags;
                  r_command = hdr.H.command;
                }
              in
              ss.req_reasm <- Some (seq, e);
              e
        in
        if entry.r_num <> hdr.H.num_frags then Stats.incr t.stats "rx-malformed"
        else
          match reasm_step entry idx piece with
          | _, Some whole -> execute t ss ~seq ~command:entry.r_command whole
          | fresh, None ->
              (* A retransmitted fragment of a partially received
                 request: tell the client what we already have so it
                 resends only the rest (Sprite's partial ack). *)
              if (not fresh) && hdr.H.flags land Wire_fmt.Flags.please_ack <> 0
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
  Machine.charge t.host.Host.mach
    [
      Machine.Header H.bytes;
      Machine.Frag_bookkeep;
      Machine.Reasm_lookup;
      Machine.Semaphore_op;
    ];
  match H.read msg with
  | None -> Stats.incr t.stats "rx-runt"
  | Some hdr ->
      let piece =
        if Msg.length msg - H.bytes >= hdr.H.data1_sz then
          Msg.sub msg H.bytes hdr.H.data1_sz
        else Msg.drop msg H.bytes
      in
      let f = hdr.H.flags in
      if f land Wire_fmt.Flags.request <> 0 then
        let ss =
          server_session t ~client_ip:hdr.H.clnt_host ~chan:hdr.H.channel
            ~lower
        in
        handle_request t ss ~lower hdr piece
      else begin
        match
          Hashtbl.find_opt t.clients
            (Addr.Ip.to_int hdr.H.srvr_host, hdr.H.channel)
        with
        | None -> Stats.incr t.stats "rx-unbound"
        | Some cs ->
            if f land Wire_fmt.Flags.reply <> 0 then
              handle_reply t cs hdr piece
            else if f land Wire_fmt.Flags.ack <> 0 then handle_ack t cs hdr
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

let create ~host ~lower () =
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
