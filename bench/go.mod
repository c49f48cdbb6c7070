module jungle/bench

go 1.24

require jungle v0.0.0

replace jungle => ../
