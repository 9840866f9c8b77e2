module djstar/bench

go 1.22

require djstar v0.0.0

replace djstar => ../
