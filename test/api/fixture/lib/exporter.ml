let used x = x + 1
let tested = 2
let unused = 3
