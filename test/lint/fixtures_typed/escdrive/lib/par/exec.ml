let map f xs = List.map f xs
