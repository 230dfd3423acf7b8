(* The transmit queue is a FIFO ring of frames in a power-of-two array:
   [tx_head] and [tx_tail] grow without bound and are masked on access,
   so queueing a frame allocates nothing once the ring has grown. *)
type t = {
  nd_host : Host.t;
  mutable tap : Wire.attachment option;
  mutable txq : Msg.t array;
  mutable tx_head : int;
  mutable tx_tail : int;
  txq_items : Sim.Semaphore.sem; (* frames in [txq] *)
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

let tx_add dev frame =
  let cap = Array.length dev.txq and len = dev.tx_tail - dev.tx_head in
  if len = cap then begin
    let grown = Array.make (max 8 (2 * cap)) Msg.empty in
    for i = 0 to len - 1 do
      grown.(i) <- dev.txq.((dev.tx_head + i) land (cap - 1))
    done;
    dev.txq <- grown;
    dev.tx_head <- 0;
    dev.tx_tail <- len
  end;
  dev.txq.(dev.tx_tail land (Array.length dev.txq - 1)) <- frame;
  dev.tx_tail <- dev.tx_tail + 1

(* The oldest frame; its slot is cleared so the ring does not keep the
   frame reachable after it is sent.  Only called with a frame queued. *)
let tx_take dev =
  let i = dev.tx_head land (Array.length dev.txq - 1) in
  let frame = dev.txq.(i) in
  dev.txq.(i) <- Msg.empty;
  dev.tx_head <- dev.tx_head + 1;
  frame

let receive dev frame =
  Trace.packet
    (Machine.sim dev.nd_host.Host.mach)
    ~host:dev.nd_host.Host.name ~proto:"dev" ~dir:`Recv frame;
  Machine.charge dev.nd_host.Host.mach Machine.Interrupt
    (Msg.length frame);
  match dev.handler with Some h -> h frame | None -> ()

let create ~host ~wire =
  let dev =
    {
      nd_host = host;
      tap = None;
      txq = [||];
      tx_head = 0;
      tx_tail = 0;
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
    let frame = tx_take dev in
    (match dev.tap with
    | Some tap -> Wire.transmit wire ~from:tap frame
    | None -> assert false);
    tx_loop ()
  in
  Sim.daemon sim ~name:(host.Host.name ^ ":tx") (fun () ->
      (* The transmitter parks on the semaphore between frames; when the
         event queue otherwise drains, [Sim.run] simply ends with this
         fiber blocked, which is fine. *)
      tx_loop ());
  dev

let transmit dev frame =
  Trace.packet
    (Machine.sim dev.nd_host.Host.mach)
    ~host:dev.nd_host.Host.name ~proto:"dev" ~dir:`Send frame;
  Machine.charge dev.nd_host.Host.mach Machine.Device
    (Msg.length frame);
  tx_add dev frame;
  Sim.Semaphore.v dev.txq_items

let set_handler dev h = dev.handler <- Some h
let set_promiscuous dev b = dev.promiscuous <- b
