module diesel/bench

go 1.24

require diesel v0.0.0

replace diesel => ../
