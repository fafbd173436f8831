module gqosm/bench

go 1.22

require gqosm v0.0.0

replace gqosm => ../
