(* Exits 1 unless every file named on the command line parses as one
   JSON document. *)
open Xkernel

let () =
  let bad = ref false in
  for i = 1 to Array.length Sys.argv - 1 do
    let file = Sys.argv.(i) in
    match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok _ -> ()
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        bad := true
  done;
  if !bad then exit 1
