type buffer_scheme = Prealloc | Per_header_alloc

type kind =
  | Layer_crossing
  | Virtual_op
  | Header
  | Checksum
  | Route_lookup
  | Reasm_lookup
  | Frag_bookkeep
  | Process_switch
  | Semaphore_op
  | Timer_op
  | Interrupt
  | Device
  | Syscall
  | Os_per_message

(* A kind's row in a profile's table. *)
let index = function
  | Layer_crossing -> 0
  | Virtual_op -> 1
  | Header -> 2
  | Checksum -> 3
  | Route_lookup -> 4
  | Reasm_lookup -> 5
  | Frag_bookkeep -> 6
  | Process_switch -> 7
  | Semaphore_op -> 8
  | Timer_op -> 9
  | Interrupt -> 10
  | Device -> 11
  | Syscall -> 12
  | Os_per_message -> 13

let n_kinds = index Os_per_message + 1

(* One row: a cost of [bytes] bytes is [fixed +. bytes *. per_byte].
   All-float, so both are stored unboxed. *)
type rate = { fixed : float; per_byte : float }

type profile = {
  rates : rate array; (* indexed by [index] *)
  alloc : float; (* added to every [Header] under [Per_header_alloc] *)
  buffer_scheme : buffer_scheme;
}

(* All-zero profile: virtual time never advances, so wall-clock
   microbenchmarks measure only the real cost of the infrastructure. *)
let zero_cost =
  {
    rates = Array.make n_kinds { fixed = 0.; per_byte = 0. };
    alloc = 0.;
    buffer_scheme = Prealloc;
  }

(* [base] with the listed rows' fixed and per-byte costs replaced. *)
let derive base ?(alloc = base.alloc) ?(per_byte = []) fixed =
  let rates = Array.copy base.rates in
  let set f (kind, c) = rates.(index kind) <- f rates.(index kind) c in
  List.iter (set (fun r fixed -> { r with fixed })) fixed;
  List.iter (set (fun r per_byte -> { r with per_byte })) per_byte;
  { base with rates; alloc }

let us x = x *. 1e-6

let xkernel_sun3 =
  let dma = us 0.72 in
  derive zero_cost ~alloc:(us 97.)
    ~per_byte:
      [ (Header, us 0.4); (Checksum, us 1.5); (Interrupt, dma); (Device, dma) ]
    [
      (Layer_crossing, us 22.);
      (Virtual_op, us 15.);
      (Header, us 5.);
      (Route_lookup, us 30.);
      (Reasm_lookup, us 15.);
      (Frag_bookkeep, us 10.);
      (Process_switch, us 140.);
      (Semaphore_op, us 25.);
      (Timer_op, us 6.);
      (Interrupt, us 185.);
      (Device, us 100.);
      (Syscall, us 120.);
    ]

(* The Sprite kernel's RPC is "less structured": per-message costs are
   higher (general-purpose buffer management, a process switch on the
   receive path) even though it crosses fewer layers.  Fitted to the
   paper's published N.RPC numbers: 2.6 msec latency, ~700 KB/s,
   1.2 msec incremental cost per KB (Table I). *)
let sprite_kernel =
  derive xkernel_sun3
    ~per_byte:[ (Header, us 1.0) ]
    [
      (Layer_crossing, us 60.);
      (Header, us 20.);
      (Process_switch, us 250.);
      (Semaphore_op, us 40.);
      (Interrupt, us 225.);
      (Device, us 170.);
      (Os_per_message, us 120.);
    ]

(* SunOS 4.0 sockets: syscalls, socket-buffer copies and a wakeup/switch
   on each message.  Fitted to the intro's 5.36 msec UDP round trip. *)
let sunos_socket =
  derive xkernel_sun3
    [
      (Layer_crossing, us 55.);
      (Header, us 12.);
      (Process_switch, us 300.);
      (Interrupt, us 250.);
      (Device, us 160.);
      (Syscall, us 350.);
      (Os_per_message, us 450.);
    ]

(* A store-and-forward switching fabric: per-port forwarding engines
   with cut-through-ish fixed costs, so the wire's serialization time —
   not the forwarding CPU — is the bottleneck.  A minimum frame costs
   ~25 us of fabric CPU per hop versus ~99 us of 10 Mb/s wire time, so
   an N-port switch built from this profile forwards at line rate while
   still charging *some* CPU (an in-network computation layer spends
   fabric cycles to save server cycles, and the accounting must show
   both sides). *)
let switch_fabric =
  let dma = us 0.036 in
  derive zero_cost ~alloc:(us 2.)
    ~per_byte:
      [
        (Header, us 0.02); (Checksum, us 0.05); (Interrupt, dma); (Device, dma);
      ]
    [
      (Layer_crossing, us 1.);
      (Virtual_op, us 1.);
      (Header, us 0.5);
      (Route_lookup, us 2.);
      (Reasm_lookup, us 1.);
      (Frag_bookkeep, us 1.);
      (Process_switch, us 5.);
      (Semaphore_op, us 1.);
      (Timer_op, us 1.);
      (Interrupt, us 8.);
      (Device, us 5.);
      (Syscall, us 5.);
    ]

let with_buffer_scheme buffer_scheme p = { p with buffer_scheme }

(* The one cost formula.  A charge of several costs forms each one
   whole here before adding it to the total ([add_costs]): adding a
   fixed part and a per-byte part to the total separately would round
   differently. *)
let[@inline] cost p kind bytes =
  let r = p.rates.(index kind) in
  let c = r.fixed +. (float_of_int bytes *. r.per_byte) in
  match (kind, p.buffer_scheme) with
  | Header, Per_header_alloc -> c +. p.alloc
  | _ -> c

type op = Busy of float

(* The CPU is a FIFO server: a charge is one timed wait to its finish.
   [cost] carries each charge's total to the hold, stored unboxed. *)
type t = {
  m_sim : Sim.t;
  cpu : Sim.Server.server;
  prof : profile;
  cost : Sim.duration;
}

let create m_sim prof =
  { m_sim; cpu = Sim.Server.create m_sim; prof; cost = { seconds = 0. } }

let sim m = m.m_sim

(* Hold the CPU for [m.cost].  A zero cost holds nothing; the server
   refuses a negative or NaN one before it blocks.  The server also
   adds up the run-queue sojourn, time a charge waited for the CPU as
   opposed to using it: the server-side queueing-delay signal overload
   experiments account against deadlines. *)
let hold_cost m = if m.cost.seconds <> 0. then Sim.Server.hold m.cpu m.cost

let charge m kind bytes =
  m.cost.seconds <- cost m.prof kind bytes;
  hold_cost m

(* Left to right from 0, as a fold would, but into [c.seconds]: with
   [cost] inlined the running total never leaves a float register. *)
let rec add_costs c p = function
  | [] -> ()
  | (kind, bytes) :: rest ->
      c.Sim.seconds <- c.Sim.seconds +. cost p kind bytes;
      add_costs c p rest

let charge_all m costs =
  m.cost.seconds <- 0.;
  add_costs m.cost m.prof costs;
  hold_cost m

let charge_one m (Busy s) =
  m.cost.seconds <- s;
  hold_cost m

let cpu_seconds m = Sim.Server.busy m.cpu
let reset_cpu_seconds m = Sim.Server.reset m.cpu
let cpu_wait_seconds m = Sim.Server.wait m.cpu
let queue_depth m = Sim.Server.holds m.cpu
