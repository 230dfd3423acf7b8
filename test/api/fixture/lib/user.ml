module E = Exporter

let answer = E.used 41

(* Passes [?lib] through; the typer fills the omitted [?tested] and
   [?never] with a [None] of its own, which is no pass. *)
let opts ?lib () = E.opts ?lib ()
