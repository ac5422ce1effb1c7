module modelir/bench

go 1.21

require modelir v0.0.0

replace modelir => ../
