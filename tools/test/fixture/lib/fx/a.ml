let own_only = 1
let via_alias x = x + own_only
let via_open x = x * 2
let via_functor x = x - 3
let not_in_sig = 4
let test_only = 5
