module E = Exporter

let answer = E.used 41
