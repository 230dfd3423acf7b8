(** Authentication as a library of optional protocol layers.

    "Much of the complexity in the Sun RPC code concerns the optional
    authentication component … layering provides a natural methodology
    for inserting or removing optional sub-pieces such as
    authentication" (section 5).  Each flavour here is an independent
    pass-through protocol with its own header (flavour, upper protocol
    number, credential length, credential bytes) that can be slotted
    anywhere in a stack — or left out entirely — without the layers
    above or below knowing.

    Every flavour uses protocol number 96 toward the layer below.

    A server-side layer that fails to verify a credential drops the
    message (counted in ["auth-reject"]); the client then sees a
    timeout, which is how classic Sun RPC surfaces most credential
    problems too.

    The digest flavour is a toy keyed checksum: real cryptography is
    out of scope for a protocol-composition study, and the paper's
    point is the composition, not the cipher. *)

type t

val proto : t -> Xkernel.Proto.t
val none : host:Xkernel.Host.t -> lower:Xkernel.Proto.t -> unit -> t
(** AUTH_NONE: empty credential, always verifies; measures the pure
    cost of an extra layer. *)

val unix :
  host:Xkernel.Host.t ->
  lower:Xkernel.Proto.t ->
  uid:int ->
  gid:int ->
  allow:(uid:int -> gid:int -> bool) ->
  unit ->
  t
(** AUTH_UNIX: sends (uid, gid); the receiver's [allow] decides. *)

val digest :
  host:Xkernel.Host.t ->
  lower:Xkernel.Proto.t ->
  key:string ->
  unit ->
  t
(** AUTH_DIGEST: a keyed checksum over the message body; both sides
    must share [key]. *)

