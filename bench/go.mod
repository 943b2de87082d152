module dyndens/bench

go 1.24

require dyndens v0.0.0

replace dyndens => ../
