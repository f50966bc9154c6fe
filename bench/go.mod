module edacloud/bench

go 1.24

require edacloud v0.0.0

replace edacloud => ../
