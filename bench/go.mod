module valois/bench

go 1.22

require valois v0.0.0

replace valois => ../
