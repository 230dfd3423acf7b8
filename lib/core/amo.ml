type server = {
  mutable client_boot : int;
  mutable last_seq : int;
  mutable exec_boot : int;
  mutable exec_seq : int;
  mutable cached : bool;
}

type action =
  | Execute
  | Resend_cached
  | Ack
  | Hold
  | Drop_stale
  | Send_reply
  | Discard_late

let server () =
  { client_boot = 0; last_seq = 0; exec_boot = 0; exec_seq = 0; cached = false }

let request s ~boot ~seq =
  if boot < s.client_boot then Drop_stale
  else begin
    if boot > s.client_boot then begin
      (* A new incarnation of the client: forget the old one.  An
         execution still running for it now answers nobody. *)
      s.client_boot <- boot;
      s.last_seq <- 0;
      s.cached <- false
    end;
    if seq < s.last_seq then Drop_stale
    else if seq = s.last_seq then
      if s.cached then Resend_cached
      else if s.exec_seq = seq && s.exec_boot = boot then Ack
      else Drop_stale
    else if s.exec_seq <> 0 then begin
      s.exec_boot <- 0;
      Hold
    end
    else Execute
  end

(* A new request implicitly acknowledges the previous reply. *)
let execute s ~seq =
  s.last_seq <- seq;
  s.exec_boot <- s.client_boot;
  s.exec_seq <- seq;
  s.cached <- false

let no_reply s =
  s.exec_seq <- 0;
  s.exec_boot <- 0

let reply s =
  if s.exec_seq = 0 then Discard_late
  else begin
    s.cached <- s.exec_boot = s.client_boot;
    no_reply s;
    if s.cached then Send_reply else Discard_late
  end

let reset_server s =
  no_reply s;
  s.client_boot <- 0;
  s.last_seq <- 0;
  s.cached <- false

type peer = { mutable server_boot : int }
type client = { peer : peer; mutable next_seq : int; mutable out_seq : int }
type result = Accept | Stale | Rebooted

let peer () = { server_boot = -1 }

(* Each boot numbers its calls from its own base, 2^20 apart within the
   headers' 32 bits.  Boot 1's first call is 1, above a fresh server's
   [last_seq]. *)
let seq_base boot = ((boot - 1) land 0xfff) lsl 20
let client peer ~boot = { peer; next_seq = seq_base boot; out_seq = 0 }

let call c =
  c.next_seq <- c.next_seq + 1;
  c.out_seq <- c.next_seq;
  c.next_seq

let outstanding c ~seq = c.out_seq <> 0 && seq = c.out_seq

let client_reply c ~seq ~boot ~retransmitted =
  if not (outstanding c ~seq) then Stale
  else begin
    let known = c.peer.server_boot in
    c.peer.server_boot <- boot;
    (* One incarnation may have executed the call and another answered
       its retransmission. *)
    if known >= 0 && known <> boot && retransmitted then Rebooted else Accept
  end

let finish c = c.out_seq <- 0

let reset_client c ~boot =
  c.next_seq <- seq_base boot;
  c.out_seq <- 0;
  c.peer.server_boot <- -1
