type buffer_scheme = Prealloc | Per_header_alloc

type profile = {
  profile_name : string;
  layer_crossing : float;
  virtual_op : float;
  header_base : float;
  header_per_byte : float;
  checksum_per_byte : float;
  route_lookup : float;
  reasm_lookup : float;
  frag_bookkeep : float;
  process_switch : float;
  semaphore_op : float;
  timer_op : float;
  interrupt : float;
  device_fixed : float;
  device_per_byte : float;
  syscall : float;
  os_per_message : float;
  alloc : float;
  buffer_scheme : buffer_scheme;
}

let us x = x *. 1e-6

let xkernel_sun3 =
  {
    profile_name = "xkernel-sun3";
    layer_crossing = us 22.;
    virtual_op = us 15.;
    header_base = us 5.;
    header_per_byte = us 0.4;
    checksum_per_byte = us 1.5;
    route_lookup = us 30.;
    reasm_lookup = us 15.;
    frag_bookkeep = us 10.;
    process_switch = us 140.;
    semaphore_op = us 25.;
    timer_op = us 6.;
    interrupt = us 185.;
    device_fixed = us 100.;
    device_per_byte = us 0.72;
    syscall = us 120.;
    os_per_message = 0.;
    alloc = us 97.;
    buffer_scheme = Prealloc;
  }

(* The Sprite kernel's RPC is "less structured": per-message costs are
   higher (general-purpose buffer management, a process switch on the
   receive path) even though it crosses fewer layers.  Fitted to the
   paper's published N.RPC numbers: 2.6 msec latency, ~700 KB/s,
   1.2 msec incremental cost per KB (Table I). *)
let sprite_kernel =
  {
    xkernel_sun3 with
    profile_name = "sprite-kernel";
    layer_crossing = us 60.;
    header_base = us 20.;
    header_per_byte = us 1.0;
    process_switch = us 250.;
    semaphore_op = us 40.;
    interrupt = us 225.;
    device_fixed = us 170.;
    device_per_byte = us 0.72;
    os_per_message = us 120.;
  }

(* SunOS 4.0 sockets: syscalls, socket-buffer copies and a wakeup/switch
   on each message.  Fitted to the intro's 5.36 msec UDP round trip. *)
let sunos_socket =
  {
    xkernel_sun3 with
    profile_name = "sunos-socket";
    layer_crossing = us 55.;
    header_base = us 12.;
    process_switch = us 300.;
    interrupt = us 250.;
    device_fixed = us 160.;
    syscall = us 350.;
    os_per_message = us 450.;
  }

(* A store-and-forward switching fabric: per-port forwarding engines
   with cut-through-ish fixed costs, so the wire's serialization time —
   not the forwarding CPU — is the bottleneck.  A minimum frame costs
   ~25 us of fabric CPU per hop versus ~99 us of 10 Mb/s wire time, so
   an N-port switch built from this profile forwards at line rate while
   still charging *some* CPU (an in-network computation layer spends
   fabric cycles to save server cycles, and the accounting must show
   both sides). *)
let switch_fabric =
  {
    profile_name = "switch-fabric";
    layer_crossing = us 1.;
    virtual_op = us 1.;
    header_base = us 0.5;
    header_per_byte = us 0.02;
    checksum_per_byte = us 0.05;
    route_lookup = us 2.;
    reasm_lookup = us 1.;
    frag_bookkeep = us 1.;
    process_switch = us 5.;
    semaphore_op = us 1.;
    timer_op = us 1.;
    interrupt = us 8.;
    device_fixed = us 5.;
    device_per_byte = us 0.036;
    syscall = us 5.;
    os_per_message = 0.;
    alloc = us 2.;
    buffer_scheme = Prealloc;
  }

let with_buffer_scheme buffer_scheme p = { p with buffer_scheme }

(* All-zero profile: virtual time never advances, so wall-clock
   microbenchmarks measure only the real cost of the infrastructure. *)
let zero_cost =
  {
    profile_name = "zero-cost";
    layer_crossing = 0.;
    virtual_op = 0.;
    header_base = 0.;
    header_per_byte = 0.;
    checksum_per_byte = 0.;
    route_lookup = 0.;
    reasm_lookup = 0.;
    frag_bookkeep = 0.;
    process_switch = 0.;
    semaphore_op = 0.;
    timer_op = 0.;
    interrupt = 0.;
    device_fixed = 0.;
    device_per_byte = 0.;
    syscall = 0.;
    os_per_message = 0.;
    alloc = 0.;
    buffer_scheme = Prealloc;
  }

type op =
  | Layer_crossing
  | Virtual_op
  | Header of int
  | Checksum of int
  | Route_lookup
  | Reasm_lookup
  | Frag_bookkeep
  | Process_switch
  | Semaphore_op
  | Timer_op
  | Syscall
  | Os_per_message
  | Busy of float

type per_byte = Header_bytes | Checksum_bytes | Interrupt_bytes | Device_bytes

(* The cost of [n] bytes of [kind], for [op_cost] and [charge_bytes]
   alike, so a sized charge adds up exactly as its [op] would. *)
let[@inline] bytes_cost p kind n =
  match kind with
  | Header_bytes ->
      let alloc =
        match p.buffer_scheme with
        | Prealloc -> 0.
        | Per_header_alloc -> p.alloc
      in
      p.header_base +. (float_of_int n *. p.header_per_byte) +. alloc
  | Checksum_bytes -> float_of_int n *. p.checksum_per_byte
  | Interrupt_bytes -> p.interrupt +. (float_of_int n *. p.device_per_byte)
  | Device_bytes -> p.device_fixed +. (float_of_int n *. p.device_per_byte)

let[@inline] op_cost p op =
  match op with
  | Layer_crossing -> p.layer_crossing
  | Virtual_op -> p.virtual_op
  | Header n -> bytes_cost p Header_bytes n
  | Checksum n -> bytes_cost p Checksum_bytes n
  | Route_lookup -> p.route_lookup
  | Reasm_lookup -> p.reasm_lookup
  | Frag_bookkeep -> p.frag_bookkeep
  | Process_switch -> p.process_switch
  | Semaphore_op -> p.semaphore_op
  | Timer_op -> p.timer_op
  | Syscall -> p.syscall
  | Os_per_message -> p.os_per_message
  | Busy s -> s

(* The CPU is a FIFO server: a charge is one timed wait to its finish.
   [cost] carries each charge's total to the hold, stored unboxed. *)
type t = {
  m_sim : Sim.t;
  cpu : Sim.Server.server;
  mutable prof : profile;
  cost : Sim.duration;
}

let create m_sim prof =
  { m_sim; cpu = Sim.Server.create m_sim; prof; cost = { seconds = 0. } }

let sim m = m.m_sim
let profile m = m.prof
let set_profile m p = m.prof <- p

(* Hold the CPU for [m.cost].  The server also adds up the run-queue
   sojourn, time a charge waited for the CPU as opposed to using it:
   the server-side queueing-delay signal overload experiments account
   against deadlines. *)
let hold_cost m = if m.cost.seconds > 0. then Sim.Server.hold m.cpu m.cost

(* Left to right, as a fold would, but into [c.seconds]: with [op_cost]
   inlined the running total never leaves a float register. *)
let rec add_costs c p = function
  | [] -> ()
  | op :: ops ->
      c.Sim.seconds <- c.Sim.seconds +. op_cost p op;
      add_costs c p ops

let charge m ops =
  m.cost.seconds <- 0.;
  add_costs m.cost m.prof ops;
  hold_cost m

(* Single-op form for per-event hot paths (layer crossings, timer
   bookkeeping): no op list per call. *)
let charge_one m op =
  m.cost.seconds <- op_cost m.prof op;
  hold_cost m

let charge_bytes m kind n =
  m.cost.seconds <- bytes_cost m.prof kind n;
  hold_cost m

let cpu_seconds m = Sim.Server.busy m.cpu
let reset_cpu_seconds m = Sim.Server.reset m.cpu
let cpu_wait_seconds m = Sim.Server.wait m.cpu
let queue_depth m = Sim.Server.holds m.cpu
