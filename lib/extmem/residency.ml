exception Overflow of { capacity : int; requested : int }

let check ~m n = if n > m then raise (Overflow { capacity = m; requested = n })
