module mpcjoin/bench

go 1.23

require mpcjoin v0.0.0

replace mpcjoin => ../
