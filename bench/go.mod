module dbdht/bench

go 1.24

require dbdht v0.0.0

replace dbdht => ../
