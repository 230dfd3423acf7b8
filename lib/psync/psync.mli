(** Psync — many-to-many IPC preserving context.

    A working model of the Psync protocol the paper repeatedly leans
    on: conversations among a fixed set of hosts where each message
    carries its *context* — the identifiers of the messages it was sent
    in response to — and is delivered only after its context, giving a
    causal partial order.

    Its role in this repository is the paper's reuse argument
    (sections 3.2 and 5): FRAGMENT was deliberately given unreliable,
    no-positive-ack semantics *so that Psync could sit on top of it* —
    Psync wants large (16 KB) messages but must not inherit at-most-once
    request/reply semantics.  Compose {!create} with a
    {!Rpc.Fragment.t} and both properties hold; missing predecessors
    are recovered Psync-style, by asking the original sender to resend
    a message named by the context graph.

    Message identifiers are (sender IP, per-sender sequence) pairs. *)

type t

val create : host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> t
(** Psync's protocol number toward [lower] is 97. *)

val proto : t -> Xkernel.Proto.t

type msg_id = { origin : Xkernel.Addr.Ip.t; seq : int }

type conversation

val join :
  t ->
  conv_id:int ->
  members:Xkernel.Addr.Ip.t list ->
  conversation
(** Every participating host must [join] the same [conv_id] with the
    same member set (which includes the local host). *)

val send : conversation -> Xkernel.Msg.t -> msg_id
(** Multicast to all other members, in the context of everything
    delivered or sent locally so far (the current leaves of the context
    graph). *)

val on_deliver :
  conversation ->
  (sender:Xkernel.Addr.Ip.t -> id:msg_id -> context:msg_id list ->
   Xkernel.Msg.t -> unit) ->
  unit
(** Delivery callback; invoked in causal order — a message is delivered
    only after every message in its context. *)

val delivered : conversation -> int
val blocked : conversation -> int
(** Messages buffered waiting for their context. *)
