open Xkernel
module F = Wire_fmt.Fragment
module Ch = Wire_fmt.Channel
module Sel = Wire_fmt.Select
module Flags = Wire_fmt.Flags

(* In-network computation on the switch: a headerless virtual protocol
   hung off the forwarding IP instance's hook.  It inspects whole
   SELECT-CHANNEL-FRAGMENT datagrams in transit and, without any wire
   format of its own, (a) answers repeated idempotent requests from a
   reply cache — charging the fabric CPU and the client's access link
   but neither the server's wire nor its CPU — and (b) sheds requests
   whose propagated deadline already expired, which the server would
   only drop after paying to receive them.

   Correctness rests on what it refuses to do: only single-fragment
   data frames are examined (anything else forwards untouched), only
   explicitly registered commands are cacheable, replies are synthesized
   under a sequence space disjoint from any real sender's, and a cached
   reply is never served across a shard-map generation it predates. *)

type entry = {
  e_reply : string;  (* CHANNEL payload: SELECT header + body *)
  e_boot_id : int;  (* server boot observed in the stored reply *)
  e_gen : int * int;  (* (epoch, version) stamped on the request *)
  e_stored : float;
}

(* A forwarded cacheable request awaiting its reply, and that request's
   key in [pending] too: the four ints that name its transaction.  A
   reply looks its request up by the instance's [probe], whose four
   ints it overwrites, so neither side builds a key. *)
type pending = {
  mutable p_client : int;
  mutable p_server : int;
  mutable p_chan : int;
  mutable p_seq : int;
  p_key : string;  (* the cache key the reply is stored under *)
  p_gen : int * int;  (* (epoch, version) stamped on the request *)
}

module Pending = Hashtbl.Make (struct
  type t = pending

  let equal a b =
    a.p_client = b.p_client && a.p_server = b.p_server && a.p_chan = b.p_chan
    && a.p_seq = b.p_seq

  let hash p =
    (((((p.p_client * 31) + p.p_server) * 31) + p.p_chan) * 31) + p.p_seq
end)

(* Cache entries held before FIFO eviction, and how long one stays
   fresh after its store. *)
let capacity = 1024
let ttl = 2.0

type t = {
  host : Host.t;
  cacheable : (int, unit) Hashtbl.t;
  cache : (string, entry) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for eviction *)
  pending : pending Pending.t;  (* each request is its own key *)
  probe : pending;
  server_boot : (int, int) Hashtbl.t;
  (* Newest shard-map generation observed in transit; entries stamped
     with an older one are dead. *)
  mutable gen : int * int;
  (* Synthesized replies use their own sequence space, far above any
     real FRAGMENT sender's (those count up from 1), so they can never
     collide in a client's duplicate-suppression table. *)
  mutable synth_seq : int;
  inject : Msg.t -> unit;  (* sends a synthesized reply, built once *)
  c_hits : Stats.counter;
  c_misses : Stats.counter;
  c_sheds : Stats.counter;
  c_forwarded : Stats.counter;
  c_stored : Stats.counter;
  c_invalidated : Stats.counter;
}

let gen_newer (e1, v1) (e0, v0) = e1 > e0 || (e1 = e0 && v1 > v0)

let flush_stale t =
  let dead =
    Hashtbl.fold
      (fun k e acc ->
        if e.e_gen <> (0, 0) && gen_newer t.gen e.e_gen then k :: acc else acc)
      t.cache []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.cache k;
      Stats.tick t.c_invalidated)
    dead

let observe_gen t g =
  if gen_newer g t.gen then begin
    t.gen <- g;
    flush_stale t
  end

(* A server reboot invalidates its at-most-once state; replies recorded
   under the old boot must die with it. *)
let observe_boot t ~server ~boot_id =
  match Hashtbl.find t.server_boot server with
  | b when b = boot_id -> ()
  | _ ->
      Hashtbl.replace t.server_boot server boot_id;
      let dead =
        Hashtbl.fold
          (fun k e acc -> if e.e_boot_id <> 0 then k :: acc else acc)
          t.cache []
      in
      List.iter
        (fun k ->
          Hashtbl.remove t.cache k;
          Stats.tick t.c_invalidated)
        dead
  | exception Not_found -> Hashtbl.replace t.server_boot server boot_id

(* The cache key, written once at its exact size: client, server (4
   bytes each), then the request body. *)
let key ~client ~server body =
  let k = Bytes.create (8 + Msg.length body) in
  Bytes.set_int32_be k 0 (Int32.of_int (Addr.Ip.to_int client));
  Bytes.set_int32_be k 4 (Int32.of_int (Addr.Ip.to_int server));
  Msg.blit body k 8;
  Bytes.unsafe_to_string k

let store t k e =
  if not (Hashtbl.mem t.cache k) then begin
    Queue.push k t.order;
    while Hashtbl.length t.cache >= capacity && not (Queue.is_empty t.order) do
      let victim = Queue.pop t.order in
      Hashtbl.remove t.cache victim
    done
  end;
  Hashtbl.replace t.cache k e;
  Stats.tick t.c_stored

(* An entry may answer while its TTL lasts and no newer map generation
   than the one it was stored under has been seen. *)
let fresh t e =
  Sim.now (Host.sim t.host) -. e.e_stored <= ttl
  && not (gen_newer t.gen e.e_gen && e.e_gen <> (0, 0))

(* Sends a synthesized reply from its fiber: the FRAGMENT header names
   the server as the sender and the client as the receiver. *)
let inject_reply ip frame =
  Netproto.Ip.inject ip ~src:(F.clnt_host frame) ~dst:(F.srvr_host frame)
    ~proto_num:Fragment.proto_num frame

(* The inject fiber starts at the back of the current instant. *)
let now_span = { Sim.seconds = 0. }

(* Answer from the cache on the server's behalf: a CHANNEL reply under a
   fresh FRAGMENT header whose [clnt_host] (the sender field) is the
   server, so the client's FRAGMENT session for that peer accepts it.
   [ch] is the request's CHANNEL frame, header in front.  Both headers
   and the stored reply are written into one buffer. *)
let synthesize t ~client ~server ~ch (e : entry) =
  let mach = t.host.Host.mach in
  Machine.charge_all mach
    [
      (Machine.Header, Ch.bytes);
      (Machine.Header, F.bytes);
      (Machine.Process_switch, 0);
    ];
  let reply_len = String.length e.e_reply in
  let seq = t.synth_seq in
  t.synth_seq <- t.synth_seq + 1;
  let b = Bytes.create (F.bytes + Ch.bytes + reply_len) in
  F.write b 0 ~typ:F.typ_data ~clnt:server ~srvr:client
    ~proto:Channel.proto_num ~seq ~num:1 ~mask:1 ~len:(Ch.bytes + reply_len);
  Ch.write b F.bytes ~flags:Flags.reply ~channel:(Ch.channel ch)
    ~proto:(Ch.protocol_num ch) ~seq:(Ch.sequence_num ch) ~error:0
    ~boot_id:e.e_boot_id ~deadline_us:(-1);
  Bytes.blit_string e.e_reply 0 b (F.bytes + Ch.bytes) reply_len;
  if Trace.enabled () then
    Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
      "INC hit: reply %d bytes for %a from cache" reply_len Addr.Ip.pp client;
  Sim.call_after (Host.sim t.host) now_span t.inject
    (Msg.of_string (Bytes.unsafe_to_string b))

(* A cacheable request the cache could not answer goes on to the server,
   remembered so its reply can be stored under [k]. *)
let forward_miss t ~client ~server ~ch k gen =
  Stats.tick t.c_misses;
  Stats.tick t.c_forwarded;
  if Pending.length t.pending > 4 * capacity then Pending.reset t.pending;
  let p =
    {
      p_client = Addr.Ip.to_int client;
      p_server = Addr.Ip.to_int server;
      p_chan = Ch.channel ch;
      p_seq = Ch.sequence_num ch;
      p_key = k;
      p_gen = gen;
    }
  in
  Pending.replace t.pending p p;
  false

(* [ch] is the CHANNEL frame, header in front; [body] is the SELECT
   frame behind it. *)
let on_request t ~client ~server ~ch body =
  if Ch.deadline_us ch = 0 then begin
    (* Already expired when stamped: the server would pay an interrupt
       and a header parse only to drop it.  Shed here instead. *)
    Stats.tick t.c_sheds;
    if Trace.enabled () then
      Trace.debugf (Host.sim t.host) ~host:t.host.Host.name
        "INC shed: expired deadline from %a" Addr.Ip.pp client;
    true
  end
  else if Msg.length body < Sel.bytes then begin
    Stats.tick t.c_forwarded;
    false
  end
  else
    let typ = Sel.typ body in
    let gen =
      if
        typ = Sel.typ_request_sharded
        && Msg.length body >= Sel.bytes + Sel.stamp_bytes
      then begin
        let g = (Sel.epoch body, Sel.version body) in
        observe_gen t g;
        g
      end
      else (0, 0)
    in
    let request = typ = Sel.typ_request || typ = Sel.typ_request_sharded in
    if not (request && Hashtbl.mem t.cacheable (Sel.command body)) then begin
      Stats.tick t.c_forwarded;
      false
    end
    else begin
      let k = key ~client ~server body in
      match Hashtbl.find t.cache k with
      | e when fresh t e ->
          Stats.tick t.c_hits;
          synthesize t ~client ~server ~ch e;
          true
      | _ ->
          Hashtbl.remove t.cache k;
          forward_miss t ~client ~server ~ch k gen
      | exception Not_found -> forward_miss t ~client ~server ~ch k gen
    end

let on_reply t ~client ~server ~ch body =
  let boot_id = Ch.boot_id ch in
  observe_boot t ~server:(Addr.Ip.to_int server) ~boot_id;
  let pkey = t.probe in
  pkey.p_client <- Addr.Ip.to_int client;
  pkey.p_server <- Addr.Ip.to_int server;
  pkey.p_chan <- Ch.channel ch;
  pkey.p_seq <- Ch.sequence_num ch;
  (if Msg.length body < Sel.bytes || Sel.typ body <> Sel.typ_reply then
     Pending.remove t.pending pkey
   else
     let status = Sel.status body in
     if status = Sel.status_wrong_shard then begin
       (* The owner moved under a routed call: everything cached under
          the older map generation is suspect. *)
       Pending.remove t.pending pkey;
       let next = snd t.gen + 1 in
       observe_gen t
         ( fst t.gen,
           if Msg.length body < Sel.bytes + 4 then next
           else max (Sel.wrong_shard_version body) next )
     end
     else if status = Sel.status_ok && Ch.error ch = 0 then begin
       match Pending.find t.pending pkey with
       | p ->
           Pending.remove t.pending pkey;
           if not (gen_newer t.gen p.p_gen && p.p_gen <> (0, 0)) then
             store t p.p_key
               {
                 e_reply = Msg.to_string body;
                 e_boot_id = boot_id;
                 e_gen = p.p_gen;
                 e_stored = Sim.now (Host.sim t.host);
               }
       | exception Not_found -> ()
     end
     else Pending.remove t.pending pkey);
  (* Replies always travel on to the client. *)
  false

let hook t ~src:_ ~dst:_ ~proto_num (msg : Msg.t) =
  if proto_num <> Fragment.proto_num || Msg.length msg < F.bytes then false
  else if
    F.typ msg <> F.typ_data
    || F.num_frags msg <> 1
    || F.protocol_num msg <> Channel.proto_num
  then false
  else begin
    Machine.charge_all t.host.Host.mach
      [
        (Machine.Virtual_op, 0);
        (Machine.Header, F.bytes);
        (Machine.Header, Ch.bytes);
      ];
    let ch = Msg.drop msg F.bytes in
    if Msg.length ch < Ch.bytes then false
    else
      let hdr_len = Ch.header_len ch in
      if Msg.length ch < hdr_len then false
      else
        let body = Msg.drop ch hdr_len in
        let flags = Ch.flags ch in
        if flags land Flags.request <> 0 then
          (* In a request frame FRAGMENT's sender field is the client; in
             a reply it is the server. *)
          on_request t ~client:(F.clnt_host msg) ~server:(F.srvr_host msg)
            ~ch body
        else if flags land Flags.reply <> 0 then
          on_reply t ~client:(F.srvr_host msg) ~server:(F.clnt_host msg) ~ch
            body
        else false
  end

let install ~host ~ip ?(cacheable = []) () =
  let stats = Stats.create ~name:(host.Host.name ^ "/INC") () in
  let t =
    {
      host;
      cacheable = Hashtbl.create 8;
      cache = Hashtbl.create 64;
      order = Queue.create ();
      pending = Pending.create 64;
      probe =
        {
          p_client = 0;
          p_server = 0;
          p_chan = 0;
          p_seq = 0;
          p_key = "";
          p_gen = (0, 0);
        };
      server_boot = Hashtbl.create 8;
      gen = (0, 0);
      synth_seq = 0x40000000;
      inject = inject_reply ip;
      c_hits = Stats.counter stats "hits";
      c_misses = Stats.counter stats "misses";
      c_sheds = Stats.counter stats "sheds";
      c_forwarded = Stats.counter stats "forwarded";
      c_stored = Stats.counter stats "stored";
      c_invalidated = Stats.counter stats "invalidated";
    }
  in
  List.iter (fun c -> Hashtbl.replace t.cacheable c ()) cacheable;
  Netproto.Ip.set_forward_hook ip
    (Some (fun ~src ~dst ~proto_num msg -> hook t ~src ~dst ~proto_num msg));
  t

let hits t = Stats.value t.c_hits
let misses t = Stats.value t.c_misses
let sheds t = Stats.value t.c_sheds
let forwarded t = Stats.value t.c_forwarded
let stored t = Stats.value t.c_stored
let invalidated t = Stats.value t.c_invalidated
let map_generation t = t.gen
