let used x = x + 1
let tested = 2
let unused = 3
let opts ?(lib = 0) ?(tested = 0) ?(never = 0) () = lib + tested + never
