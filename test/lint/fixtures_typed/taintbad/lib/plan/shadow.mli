val pick : int -> int
