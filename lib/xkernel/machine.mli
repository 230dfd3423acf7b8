(** Calibrated CPU cost model.

    The paper's measurements come from Sun 3/75 workstations; this
    repository reproduces the msec scale with a per-operation cost model
    while the protocol *behaviour* (packet counts, layer crossings,
    timeouts) comes from actually running the protocol code.  Each
    simulated host owns a {!t}; protocol code charges abstract
    operations ({!op}) against it, which advances virtual time while
    holding the host's single CPU.

    Calibration (see DESIGN.md §5) is anchored to the paper's published
    component costs — 0.11 msec minimum round-trip cost per layer, 0.06
    msec for a virtual protocol's per-message test, 0.37 msec for IP,
    CHANNEL's synchronisation cost — rather than to the table rows
    themselves, so the tables are genuine predictions of composition. *)

(** The buffer-management ablation of section 5 ("Potential Pitfalls of
    Layering"): allocating a buffer per pushed header cost 0.50 msec per
    layer; the pre-allocated header buffer costs 0.11. *)
type buffer_scheme = Prealloc | Per_header_alloc

type profile = {
  profile_name : string;
  layer_crossing : float;  (** one push or demux across a layer boundary *)
  virtual_op : float;  (** a virtual protocol's per-message test *)
  header_base : float;  (** fixed cost to encode or decode one header *)
  header_per_byte : float;
  checksum_per_byte : float;
  route_lookup : float;  (** IP routing decision *)
  reasm_lookup : float;  (** reassembly-table lookup *)
  frag_bookkeep : float;  (** fragment mask/cache bookkeeping *)
  process_switch : float;
  semaphore_op : float;
  timer_op : float;  (** registering or cancelling an event *)
  interrupt : float;  (** fixed receive-interrupt dispatch cost *)
  device_fixed : float;  (** fixed transmit cost in the driver *)
  device_per_byte : float;  (** DMA/copy cost, both directions *)
  syscall : float;  (** user/kernel boundary crossing *)
  os_per_message : float;
      (** per-message kernel overhead outside the protocols; zero in the
          x-kernel, large in the SunOS-socket profile *)
  alloc : float;  (** per-buffer allocation under {!Per_header_alloc} *)
  buffer_scheme : buffer_scheme;
}

val xkernel_sun3 : profile
(** The x-kernel on a Sun 3/75 — the profile behind every x-kernel
    number in the paper. *)

val sprite_kernel : profile
(** Heavier "native Sprite kernel" profile used for the N.RPC baseline
    row of Table I. *)

val sunos_socket : profile
(** SunOS 4.0 socket-layer profile used for the intro's UDP comparison. *)

val switch_fabric : profile
(** A switching fabric's per-port forwarding engine: fixed costs small
    enough that a 10 Mb/s wire's serialization time, not the forwarding
    CPU, bounds throughput (~25 us per minimum frame versus ~99 us of
    wire time).  The default profile for the switch ports of
    [World.create_switched]; end hosts keep {!xkernel_sun3}. *)

val with_buffer_scheme : buffer_scheme -> profile -> profile

val zero_cost : profile
(** All operations free: virtual time never advances.  Used by the
    wall-clock microbenchmarks, which measure the real OCaml cost of
    the infrastructure (e.g. that a layer crossing is one call). *)

type op =
  | Layer_crossing
  | Virtual_op
  | Header of int  (** encode or decode [n] header bytes *)
  | Checksum of int
  | Route_lookup
  | Reasm_lookup
  | Frag_bookkeep
  | Process_switch
  | Semaphore_op
  | Timer_op
  | Syscall
  | Os_per_message
  | Busy of float  (** explicit CPU seconds (application work) *)

val op_cost : profile -> op -> float

(** The costs that grow with a byte count, for {!charge_bytes}.  The two
    device costs are only ever charged for a frame's run-time length,
    so they have no {!op}. *)
type per_byte =
  | Header_bytes  (** as [Header n] *)
  | Checksum_bytes  (** as [Checksum n] *)
  | Interrupt_bytes
      (** receive [n] bytes off the device: [interrupt] plus
          [device_per_byte] a byte *)
  | Device_bytes
      (** hand [n] bytes to the device: [device_fixed] plus
          [device_per_byte] a byte *)

type t
(** One host's CPU: a FIFO server on the virtual clock plus
    accumulated busy and wait times. *)

val create : Sim.t -> profile -> t
val sim : t -> Sim.t
val profile : t -> profile
val set_profile : t -> profile -> unit

val charge : t -> op list -> unit
(** [charge m ops] occupies the CPU for the summed cost of [ops]
    (blocking the calling fiber) and adds it to the busy-time counter.
    The CPU is a FIFO server ({!Sim.Server}): a charge that finds it
    busy finishes its cost after the charges ahead of it, a finish time
    known on arrival.  Free when the total cost is zero. *)

val charge_one : t -> op -> unit
(** [charge_one m op] = [charge m [op]] without the per-call list — for
    per-event hot paths. *)

val charge_bytes : t -> per_byte -> int -> unit
(** [charge_bytes m Header_bytes n] = [charge_one m (Header n)], and
    likewise for [Checksum_bytes], without building the op: for a byte
    count known only at run time, such as a frame's length. *)

val cpu_seconds : t -> float
(** Total CPU time charged so far — the paper's "uses less CPU time"
    comparisons (sections 4.1, 4.2). *)

val reset_cpu_seconds : t -> unit
(** Zeroes both {!cpu_seconds} and {!cpu_wait_seconds}. *)

val cpu_wait_seconds : t -> float
(** Total time fibers spent queued for the CPU before their charges ran
    — the run-queue sojourn the overload experiments account against
    propagated deadlines.  A charge's wait counts from its arrival,
    when it is known. *)

val queue_depth : t -> int
(** Fibers currently on this CPU: the holder (if any) plus everyone
    queued behind it.  The load subsystem samples this as its
    server-side run-queue-depth gauge. *)
