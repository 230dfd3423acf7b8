type t = {
  nd_host : Host.t;
  mutable tap : Wire.attachment option;
  txq : Msg.t Queue.t;
  txq_items : Sim.Semaphore.sem;
  mutable handler : (Msg.t -> unit) option;
  mutable promiscuous : bool;
}

let eth_header_bytes = 14

(* The 48-bit destination address, read in place; -1 for a runt. *)
let dst_bits msg = if Msg.length msg < 6 then -1 else Msg.u48 msg 0

let peek_dst msg =
  match dst_bits msg with -1 -> None | d -> Some (Addr.Eth.v d)

let host dev = dev.nd_host
let attachment dev = Option.get dev.tap

(* Hardware address filter, which the wire asks as it sends each copy:
   a frame for another station costs nothing, not even an event. *)
let accepts dev frame =
  dev.promiscuous
  ||
  match dst_bits frame with
  | -1 -> false
  | d ->
      let dst = Addr.Eth.v d in
      Addr.Eth.equal dst dev.nd_host.Host.eth || Addr.Eth.is_broadcast dst

let receive dev frame =
  Trace.packet
    (Machine.sim dev.nd_host.Host.mach)
    ~host:dev.nd_host.Host.name ~proto:"dev" ~dir:`Recv frame;
  Machine.charge_bytes dev.nd_host.Host.mach Machine.Interrupt_bytes
    (Msg.length frame);
  match dev.handler with Some h -> h frame | None -> ()

let create ~host ~wire =
  let dev =
    {
      nd_host = host;
      tap = None;
      txq = Queue.create ();
      txq_items = Sim.Semaphore.create (Wire.sim wire) 0;
      handler = None;
      promiscuous = false;
    }
  in
  dev.tap <-
    Some
      (Wire.attach ~accepts:(accepts dev) wire ~recv:(fun frame ->
           receive dev frame));
  let sim = Wire.sim wire in
  (* Transmitter fiber: drains the queue for the life of the run. *)
  let rec tx_loop () =
    Sim.Semaphore.p dev.txq_items;
    let frame = Queue.take dev.txq in
    (match dev.tap with
    | Some tap -> Wire.transmit wire ~from:tap frame
    | None -> assert false);
    tx_loop ()
  in
  Sim.spawn sim ~name:(host.Host.name ^ ":tx") (fun () ->
      (* The transmitter parks on the semaphore between frames; when the
         event queue otherwise drains, [Sim.run] simply ends with this
         fiber blocked, which is fine. *)
      tx_loop ());
  dev

let transmit dev frame =
  Trace.packet
    (Machine.sim dev.nd_host.Host.mach)
    ~host:dev.nd_host.Host.name ~proto:"dev" ~dir:`Send frame;
  Machine.charge_bytes dev.nd_host.Host.mach Machine.Device_bytes
    (Msg.length frame);
  Queue.add frame dev.txq;
  Sim.Semaphore.v dev.txq_items

let set_handler dev h = dev.handler <- Some h
let set_promiscuous dev b = dev.promiscuous <- b
