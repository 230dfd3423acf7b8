(* The at-most-once rule ([Rpc.Amo]) checked exhaustively on a bounded
   model: every state one client and one server can reach, explored
   breadth first, so a violation comes back as a shortest trace.

   The model:
   - the client makes up to [calls] calls, one at a time, on one
     channel; each call transmits at most [1 + retries] times and then
     gives up (the retransmit timer fires whenever the model likes, so
     the handler may finish before or after the client gives up);
   - the network keeps one queue each way and delivers in order, but up
     to [faults] times it drops a message, duplicates one (the copy
     goes to the back of the queue) or reorders one (sends it to the
     back);
   - the handler finishes whenever the model likes, with the result of
     the call it executes, or — once — swallows its request, telling
     the server no reply will come;
   - while a call is outstanding the client host may crash once, and
     so may the server host; a crash ends the calls and executions
     running on that host, and messages in flight survive it.

   The properties, each asserted where it can break:
   - at most one execution of a call per server incarnation;
   - a reply delivered for call n carries call n's result;
   - nothing goes up as a request that was a reply: the server sends
     nothing but replies, each stamped with the sequence number of the
     request whose execution produced it;
   - every call ends Ok, Timeout or Rebooted;
   - and what the reply cache is for: a retransmission of the request
     whose reply the server holds gets that reply again. *)

module Amo = Rpc.Amo

let calls = 3
let retries = 1
let faults = 1

(* Messages in flight: requests carry the call they belong to, replies
   the call whose execution produced their result. *)
type msg =
  | Req of { boot : int; seq : int; call : int }
  | Rep of { seq : int; sboot : int; result : int }

(* A call's end, as the caller sees it. *)
type outcome = Pending | Answered | Timed_out | Crashed

type state = {
  (* client *)
  cboot : int;
  next_seq : int;
  out_seq : int;
  known_boot : int;
  cur : int; (* the outstanding call, -1 when none *)
  tries : int;
  started : int;
  outcomes : outcome list; (* by call, oldest first *)
  (* server *)
  sboot : int;
  client_boot : int;
  last_seq : int;
  exec_boot : int;
  exec_seq : int;
  cached : bool;
  running : int; (* the call the handler executes, -1 when none *)
  running_boot : int; (* the client boot and sequence number of its request *)
  running_seq : int;
  cache_boot : int; (* the request whose reply the server holds; 0 when none *)
  cache_seq : int;
  cache_result : int;
  executed : int; (* bit [2 * call + sboot - 1]: executed in that incarnation *)
  (* world *)
  to_server : msg list; (* in delivery order *)
  to_client : msg list;
  faults_left : int;
  swallowed : bool;
  client_crashed : bool;
  server_crashed : bool;
}

let init =
  {
    cboot = 1;
    next_seq = 0;
    out_seq = 0;
    known_boot = -1;
    cur = -1;
    tries = 0;
    started = 0;
    outcomes = List.init calls (fun _ -> Pending);
    sboot = 1;
    client_boot = 0;
    last_seq = 0;
    exec_boot = 0;
    exec_seq = 0;
    cached = false;
    running = -1;
    running_boot = 0;
    running_seq = 0;
    cache_boot = 0;
    cache_seq = 0;
    cache_result = -1;
    executed = 0;
    to_server = [];
    to_client = [];
    faults_left = faults;
    swallowed = false;
    client_crashed = false;
    server_crashed = false;
  }

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* Amo's records, rebuilt from a state and read back into one. *)
let server_of st =
  {
    Amo.client_boot = st.client_boot;
    last_seq = st.last_seq;
    exec_boot = st.exec_boot;
    exec_seq = st.exec_seq;
    cached = st.cached;
  }

let with_server st (s : Amo.server) =
  {
    st with
    client_boot = s.client_boot;
    last_seq = s.last_seq;
    exec_boot = s.exec_boot;
    exec_seq = s.exec_seq;
    cached = s.cached;
  }

let client_of st =
  {
    Amo.peer = { Amo.server_boot = st.known_boot };
    next_seq = st.next_seq;
    out_seq = st.out_seq;
  }

let with_client st (c : Amo.client) =
  {
    st with
    next_seq = c.next_seq;
    out_seq = c.out_seq;
    known_boot = c.peer.server_boot;
  }

let send st m =
  match m with
  | Req _ -> { st with to_server = st.to_server @ [ m ] }
  | Rep _ -> { st with to_client = st.to_client @ [ m ] }

let set_outcome st i o = List.mapi (fun j x -> if j = i then o else x) st.outcomes

let end_call st o =
  let c = client_of st in
  Amo.finish c;
  { (with_client st c) with outcomes = set_outcome st st.cur o; cur = -1 }

let msg_label = function
  | Req { boot; seq; call } ->
      Printf.sprintf "request(call %d, boot %d, seq %d)" call boot seq
  | Rep { seq; sboot; result } ->
      Printf.sprintf "reply(seq %d, server boot %d, result of call %d)" seq
        sboot result

(* The client receives a message. *)
let client_rx st m =
  match m with
  | Req _ -> violation "a request reached the client"
  | Rep { seq; sboot; result } -> (
      if st.cur < 0 then
        (* No call outstanding: whatever arrives is stale. *)
        st
      else
        let c = client_of st in
        match
          Amo.client_reply c ~seq ~boot:sboot ~retransmitted:(st.tries < retries)
        with
        | Amo.Stale -> with_client st c
        | Amo.Rebooted -> end_call (with_client st c) Crashed
        | Amo.Accept ->
            if result <> st.cur then
              violation "call %d was answered with call %d's result" st.cur
                result;
            end_call (with_client st c) Answered)

(* The server receives a request.  A retransmission of the request whose
   reply the server holds, from the newest client boot it has heard,
   must get that reply. *)
let server_rx st ~boot ~seq ~call =
  let s = server_of st in
  let answered =
    st.cache_boot = boot && st.cache_seq = seq && boot >= st.client_boot
  in
  match Amo.request s ~boot ~seq with
  | Amo.Execute ->
      Amo.execute s ~seq;
      let bit = 1 lsl ((2 * call) + st.sboot - 1) in
      if st.executed land bit <> 0 then
        violation "call %d executed twice in server incarnation %d" call
          st.sboot;
      {
        (with_server st s) with
        running = call;
        running_boot = boot;
        running_seq = seq;
        cache_boot = 0;
        cache_seq = 0;
        executed = st.executed lor bit;
      }
  | Amo.Resend_cached ->
      send (with_server st s)
        (Rep { seq = s.last_seq; sboot = st.sboot; result = st.cache_result })
  | _ when answered ->
      violation "a retransmission of call %d did not get its cached reply" call
  | Amo.Ack | Amo.Hold | Amo.Drop_stale -> with_server st s
  | Amo.Send_reply | Amo.Discard_late ->
      violation "a request was answered with a reply action"

(* The handler finishes: its reply goes through [Amo.reply]. *)
let handler_done st =
  let s = server_of st in
  match Amo.reply s with
  | Amo.Send_reply ->
      if s.last_seq <> st.running_seq then
        violation "the reply to seq %d went out stamped seq %d" st.running_seq
          s.last_seq;
      let result = st.running in
      send
        {
          (with_server st s) with
          running = -1;
          cache_boot = st.running_boot;
          cache_seq = st.running_seq;
          cache_result = result;
        }
        (Rep { seq = s.last_seq; sboot = st.sboot; result })
  | Amo.Discard_late -> { (with_server st s) with running = -1 }
  | _ -> violation "a reply was turned into a request action"

let steps st =
  let acc = ref [] in
  let add label f = acc := (label, f) :: !acc in
  (* Client. *)
  if st.cur < 0 && st.started < calls then
    add (fun () -> Printf.sprintf "client starts call %d" st.started) (fun () ->
        let c = client_of st in
        let seq = Amo.call c in
        let st = with_client st c in
        send
          { st with cur = st.started; tries = retries; started = st.started + 1 }
          (Req { boot = st.cboot; seq; call = st.started }));
  if st.cur >= 0 then
    if st.tries > 0 then
      add (fun () -> Printf.sprintf "client retransmits call %d" st.cur) (fun () ->
          send { st with tries = st.tries - 1 }
            (Req { boot = st.cboot; seq = st.out_seq; call = st.cur }))
    else
      add (fun () -> Printf.sprintf "client gives up on call %d" st.cur) (fun () ->
          end_call st Timed_out);
  if (not st.client_crashed) && st.cur >= 0 then
    add (fun () -> "client host crashes") (fun () ->
        let st = end_call st Crashed in
        let c = client_of st in
        Amo.reset_client c ~boot:(st.cboot + 1);
        { (with_client st c) with cboot = st.cboot + 1; client_crashed = true });
  (* Server. *)
  if st.running >= 0 then begin
    add (fun () -> Printf.sprintf "handler finishes call %d" st.running) (fun () ->
        handler_done st);
    if not st.swallowed then
      add (fun () -> Printf.sprintf "handler swallows call %d" st.running) (fun () ->
          let s = server_of st in
          Amo.no_reply s;
          { (with_server st s) with running = -1; swallowed = true })
  end;
  if (not st.server_crashed) && st.cur >= 0 then
    add (fun () -> "server host crashes") (fun () ->
        let s = server_of st in
        Amo.reset_server s;
        {
          (with_server st s) with
          sboot = st.sboot + 1;
          running = -1;
          cache_boot = 0;
          cache_seq = 0;
          server_crashed = true;
        });
  (* Network: the head of each queue is delivered, or with a fault
     dropped, duplicated or sent to the back. *)
  let queue q rx set =
    match q with
    | [] -> ()
    | m :: rest ->
        add (fun () -> "deliver " ^ msg_label m) (fun () -> rx (set st rest) m);
        if st.faults_left > 0 then begin
          let faulty q = { (set st q) with faults_left = st.faults_left - 1 } in
          add (fun () -> "drop " ^ msg_label m) (fun () -> faulty rest);
          add (fun () -> "duplicate " ^ msg_label m) (fun () -> faulty (q @ [ m ]));
          if rest <> [] then
            add (fun () -> "reorder " ^ msg_label m) (fun () -> faulty (rest @ [ m ]))
        end
  in
  queue st.to_server
    (fun st -> function
      | Req { boot; seq; call } -> server_rx st ~boot ~seq ~call
      | Rep _ -> violation "a reply reached the server")
    (fun st q -> { st with to_server = q });
  queue st.to_client client_rx (fun st q -> { st with to_client = q });
  List.rev !acc

(* A quiescent state: nothing left to do.  Every call must have ended. *)
let check_final st =
  List.iteri
    (fun i o ->
      if o = Pending then violation "call %d never ended" i)
    st.outcomes

(* Breadth-first search over [steps], from [init]; each state remembers
   the step that first reached it, so a violation replays as a shortest
   trace.  Generic over the model: [steps] lists labelled successors,
   each computed on demand, and may raise [Violation]. *)
let explore ~init ~steps ~check_final =
  (* States are plain values compared structurally; the hash looks at
     all of one, not the stdlib default's first ten words. *)
  let seen = Hashtbl.create 65536 in
  let hash st = Hashtbl.hash_param 100 400 st in
  let find st = List.assoc_opt st (Hashtbl.find_all seen (hash st)) in
  let count = ref 0 in
  let add st parent =
    incr count;
    Hashtbl.add seen (hash st) (st, parent)
  in
  let q = Queue.create () in
  add init None;
  Queue.add init q;
  let rec trace st acc =
    match find st with
    | Some (Some (prev, label)) -> trace prev (label () :: acc)
    | _ -> acc
  in
  let fail st label why =
    Error (String.concat "\n  " (trace st [] @ [ label (); "=> " ^ why ]))
  in
  let rec loop () =
    match Queue.take_opt q with
    | None -> Ok !count
    | Some st -> (
        let succ = steps st in
        let r =
          if succ = [] then
            match check_final st with
            | () -> Ok ()
            | exception Violation why -> fail st (fun () -> "(end)") why
          else
            List.fold_left
              (fun r (label, next) ->
                match r with
                | Error _ -> r
                | Ok () -> (
                    match next () with
                    | st' ->
                        if find st' = None then begin
                          add st' (Some (st, label));
                          Queue.add st' q
                        end;
                        Ok ()
                    | exception Violation why -> fail st label why))
              (Ok ()) succ
        in
        match r with Ok () -> loop () | Error e -> Error e)
  in
  loop ()

let states = ref 0

let whole_model () =
  match explore ~init ~steps ~check_final with
  | Ok n -> states := n
  | Error trace -> Alcotest.failf "shortest counterexample:\n  %s" trace

let () =
  Alcotest.run ~and_exit:false "amo"
    [ ("model", [ Alcotest.test_case "whole bounded model" `Quick whole_model ]) ];
  Printf.printf
    "\n\nat-most-once model: %d states (%d calls, %d retry, %d faults)\n"
    !states calls retries faults
