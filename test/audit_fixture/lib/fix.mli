val used : int -> int
val listed : int -> int
val test_only : int -> int
val internal : int -> int
val dead : int -> int
