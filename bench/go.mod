module affinityaccept/bench

go 1.24

require affinityaccept v0.0.0

replace affinityaccept => ../
