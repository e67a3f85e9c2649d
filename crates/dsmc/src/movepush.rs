//! Ballistic particle movement with exact cell tracking (the paper's
//! *DSMC_Move* component; also reused by *PIC_Move* for the advection
//! half of the charged-particle push).
//!
//! Particles move in straight lines within a timestep, crossing cell
//! faces (possibly many), reflecting diffusely off walls at the wall
//! temperature, and leaving the domain through the outlet (or back
//! through the inlet).

use crate::keyed::stream;
use kernels::{carve_mut, chunk_ranges, team, Pool};
use mesh::{first_exit, BoundaryKind, FaceTag, TetMesh, Vec3};
use particles::sample::{flux_normal_speed, maxwellian};
use particles::{ParticleBuffer, SpeciesTable};
use rand::rngs::StdRng;
use rand::Rng;

/// Statistics of one move pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Particles that left through the outlet or inlet and were
    /// removed.
    pub exited: usize,
    /// Diffuse wall reflections performed.
    pub wall_hits: usize,
    /// Total cell-boundary crossings.
    pub crossings: usize,
    /// Particles absorbed by the partial pump at a wall hit (not
    /// counted in `exited` or `wall_hits`).
    pub pumped: usize,
}

impl std::ops::AddAssign for MoveStats {
    fn add_assign(&mut self, o: MoveStats) {
        self.exited += o.exited;
        self.wall_hits += o.wall_hits;
        self.crossings += o.crossings;
        self.pumped += o.pumped;
    }
}

/// Partial-pump absorption at wall hits (scenario `pump_prob`:
/// `0 = full pump, 1 = no pump`). A move keys its survival decisions
/// by one `u64` of `rng`; each wall hit of a flight first decides
/// survival on the flight's own stream under that key — a survivor
/// reflects diffusely exactly as without pumping, an absorbed particle
/// is removed. Because the decisions never touch the reflection draws
/// or the mover's main RNG, `prob == 1.0` is bitwise identical to
/// running with no pump at all.
pub struct Pump<'a> {
    /// Survival probability per wall hit, in `[0, 1]`.
    pub prob: f64,
    /// Dedicated stream (never the mover's main RNG): one key per move
    /// that reaches a wall; a move with no wall hit leaves it as it
    /// was.
    pub rng: &'a mut StdRng,
}

/// Fraction of the cell size used to nudge particles off faces after
/// a crossing (avoids re-intersecting the same plane).
const NUDGE: f64 = 1e-9;

/// Sentinel `new_cell` value in a transition record meaning "left the
/// domain".
pub const EXITED: u32 = u32::MAX;

/// Legs (loop iterations) a flight may take in one move before it
/// stops where it is — a guard against degenerate geometry.
const MAX_LEGS: usize = 10_000;

/// Moved particles a lane takes at least: a spawned lane costs
/// 41–48 µs (`kernels.dispatch_us`), ≈ 4,096 flights of ≈ 100–180 ns
/// take several times that.
const PARTICLES_PER_LANE: usize = 1 << 12;

/// What every flight of one move shares.
struct Flights<'a> {
    mesh: &'a TetMesh,
    species: &'a SpeciesTable,
    dt: f64,
    wall_temp: f64,
    nudge_len: f64,
    /// Key of the reflection draws: the flight of the particle at
    /// buffer index `i` draws from `stream(wall_key, i)`.
    wall_key: u64,
    /// The pump's survival probability and the key of its decisions,
    /// drawn per flight like the reflections.
    pump: Option<(f64, u64)>,
}

impl Flights<'_> {
    /// Fly particle `i` (species `sp_id`, at `r`, `v` in `cell`) for
    /// `dt`: straight legs with face crossings, at most [`MAX_LEGS`] of
    /// them. A particle that crosses no face lands on `r + v·dt` in its
    /// first leg, cell and velocity untouched. Returns where it landed,
    /// or `None` when it left the domain or was pumped.
    ///
    /// At a wall face the partial pump first decides survival, before
    /// any reflection draw. A survivor reflects diffusely: `v` becomes
    /// a fresh Maxwellian at the wall temperature with a flux-weighted
    /// inward normal component, and `r` is nudged off the wall. Both
    /// draw from streams keyed by the particle's index, made at the
    /// flight's first wall hit, so a flight's draws depend on neither
    /// the other flights nor the lane that flies it.
    ///
    /// Kept out of line (`#[inline]`, which LLVM declines here): an
    /// `#[inline(always)]` flight body made the serial walk this loop
    /// replaced 8–11 % slower.
    #[inline]
    fn fly(
        &self,
        i: usize,
        sp_id: u8,
        mut r: Vec3,
        mut v: Vec3,
        mut cell: usize,
        stats: &mut MoveStats,
    ) -> Option<(Vec3, Vec3, u32)> {
        let (mesh, mut remaining) = (self.mesh, self.dt);
        // Unit direction of the current straight leg: `v` only changes at
        // a wall hit, so it is computed at the leg's first interior
        // crossing and dropped on reflection.
        let mut dir: Option<Vec3> = None;
        let (mut reflect, mut survive): (Option<StdRng>, Option<StdRng>) = (None, None);
        for _ in 0..MAX_LEGS {
            if remaining <= 0.0 {
                break;
            }
            match first_exit(mesh, cell, r, v, remaining) {
                None => {
                    r += v * remaining;
                    remaining = 0.0;
                }
                Some((tc, face)) => {
                    r += v * tc;
                    remaining -= tc;
                    stats.crossings += 1;
                    match mesh.neighbors[cell][face] {
                        FaceTag::Interior(o) => {
                            cell = o as usize;
                            // nudge across the face so the new cell's
                            // containment holds numerically
                            r += *dir.get_or_insert_with(|| v.normalized()) * self.nudge_len;
                        }
                        FaceTag::Boundary(BoundaryKind::Wall) => {
                            if let Some((prob, key)) = self.pump {
                                let rng = survive.get_or_insert_with(|| stream(key, i));
                                if rng.gen::<f64>() >= prob {
                                    stats.pumped += 1;
                                    return None;
                                }
                            }
                            stats.wall_hits += 1;
                            let rng = reflect.get_or_insert_with(|| stream(self.wall_key, i));
                            let (_fc, n) = mesh.face_centroid_normal(cell, face);
                            let inward = -n.normalized();
                            let mass = self.species.get(sp_id).mass;
                            v = maxwellian(rng, self.wall_temp, mass, Vec3::ZERO);
                            v -= inward * v.dot(inward); // tangential part
                            v += inward * flux_normal_speed(rng, self.wall_temp, mass);
                            r += inward * self.nudge_len;
                            dir = None;
                        }
                        FaceTag::Boundary(_) => {
                            stats.exited += 1;
                            return None;
                        }
                    }
                }
            }
        }
        Some((r, v, cell as u32))
    }
}

/// One lane's share of the move: the particles `start..start +
/// cell.len()`, with the lanes it writes, and the transitions of its
/// moved particles.
struct Chunk<'a> {
    start: usize,
    /// Position x, y, z, then velocity x, y, z.
    rv: [&'a mut [f64]; 6],
    cell: &'a mut [u32],
    transitions: &'a mut [(u32, u32)],
}

/// Move every particle of `buf` whose species id satisfies `pred` for
/// `dt` (DSMC timesteps move neutrals, PIC timesteps charged particles
/// — paper §III-B), updating positions, velocities and cell ids in
/// place and removing the particles that left. `wall_temp` drives the
/// diffuse reflection. Each moved particle appends one
/// `(old_cell, new_cell)` record to `transitions` (`new_cell ==
/// EXITED` if it left), in buffer order, from which the cluster driver
/// attributes per-rank work and builds the migration byte matrix.
///
/// The move draws one key from `rng` (and, when a flight reaches a
/// wall, one from the pump's stream), and each flight draws its wall
/// hits from streams keyed by it and the particle's buffer index. So
/// the result is the same, bit for bit, on any pool — buffer order,
/// positions, velocities, cells, [`MoveStats`], transitions and both
/// RNG end states. It is one `kernels::team` region: each lane flies a
/// contiguous chunk of the buffer to the end, writing every landing in
/// place and chaining every exit through the dead particle's cell
/// entry, and the caller then swap-removes the exits, the highest index
/// first. A lane takes at least `PARTICLES_PER_LANE` moved particles; a
/// serial pool is one chunk.
#[allow(clippy::too_many_arguments)]
pub fn move_particles_pooled<R: Rng, P: Fn(u8) -> bool + Sync>(
    mesh: &TetMesh,
    buf: &mut ParticleBuffer,
    species: &SpeciesTable,
    dt: f64,
    wall_temp: f64,
    rng: &mut R,
    pool: &Pool,
    pred: P,
    transitions: Option<&mut Vec<(u32, u32)>>,
    pump: Option<Pump<'_>>,
) -> MoveStats {
    move_with_floor(
        mesh,
        buf,
        species,
        dt,
        wall_temp,
        rng,
        pool,
        pred,
        transitions,
        pump,
        PARTICLES_PER_LANE,
    )
}

/// [`move_particles_pooled`] with `per_lane` as the lane floor (tests
/// force many lanes on a small buffer through it).
#[allow(clippy::too_many_arguments)]
fn move_with_floor<R: Rng, P: Fn(u8) -> bool + Sync>(
    mesh: &TetMesh,
    buf: &mut ParticleBuffer,
    species: &SpeciesTable,
    dt: f64,
    wall_temp: f64,
    rng: &mut R,
    pool: &Pool,
    pred: P,
    transitions: Option<&mut Vec<(u32, u32)>>,
    pump: Option<Pump<'_>>,
    per_lane: usize,
) -> MoveStats {
    let flights = Flights {
        mesh,
        species,
        dt,
        wall_temp,
        nudge_len: mesh.mean_cell_size() * NUDGE,
        wall_key: rng.gen(),
        // peeked: taken from the stream below once a wall is reached
        pump: pump.as_ref().map(|p| (p.prob, p.rng.clone().gen())),
    };
    let lanes = if pool.is_serial() {
        1
    } else {
        let moved = buf.species.iter().filter(|&&s| pred(s)).count();
        pool.workers().min(moved / per_lane).max(1)
    };
    let runs = chunk_ranges(buf.len(), lanes);
    // The caller logs each moved particle's old cell, chunk by chunk;
    // the lanes fill in the new ones (helper lanes allocate nothing).
    let mut log = transitions.map(|tr| (tr.len(), tr));
    let log_runs: Vec<_> = runs
        .iter()
        .map(|run| match &mut log {
            Some((_, tr)) => {
                let start = tr.len();
                let moved = run.clone().filter(|&i| pred(buf.species[i]));
                tr.extend(moved.map(|i| (buf.cell[i], EXITED)));
                start..tr.len()
            }
            None => 0..0,
        })
        .collect();
    let log: &mut [(u32, u32)] = match log {
        Some((first, tr)) => &mut tr[first..],
        None => &mut [],
    };
    let ParticleBuffer {
        px,
        py,
        pz,
        vx,
        vy,
        vz,
        cell,
        species: sp_ids,
        ..
    } = &mut *buf;
    let sp_ids: &[u8] = sp_ids;
    let mut rv = [px, py, pz, vx, vy, vz].map(|lane| carve_mut(&runs, lane).into_iter());
    let chunks = runs
        .iter()
        .zip(carve_mut(&runs, cell))
        .zip(carve_mut(&log_runs, log))
        .map(|((run, cell), transitions)| Chunk {
            start: run.start,
            rv: rv
                .each_mut()
                .map(|lane| lane.next().expect("a slice per run")),
            cell,
            transitions,
        })
        .collect();
    let (pred, flights) = (&pred, &flights);
    let lane_out = team(chunks, |_, chunk: Chunk<'_>| {
        let Chunk {
            start,
            rv: [x, y, z, vx, vy, vz],
            cell,
            transitions,
        } = chunk;
        let mut stats = MoveStats::default();
        // the chunk's last exit; each exit's cell entry holds the one
        // before it (EXITED ends the chain)
        let mut exits = EXITED;
        let mut transitions = transitions.iter_mut();
        for (k, c) in cell.iter_mut().enumerate() {
            let i = start + k;
            if !pred(sp_ids[i]) {
                continue;
            }
            let (r, v) = (Vec3::new(x[k], y[k], z[k]), Vec3::new(vx[k], vy[k], vz[k]));
            let new_cell = match flights.fly(i, sp_ids[i], r, v, *c as usize, &mut stats) {
                Some((r, v, new_cell)) => {
                    (x[k], y[k], z[k]) = (r.x, r.y, r.z);
                    (vx[k], vy[k], vz[k]) = (v.x, v.y, v.z);
                    *c = new_cell;
                    new_cell
                }
                None => {
                    (*c, exits) = (exits, i as u32);
                    EXITED
                }
            };
            if let Some(tr) = transitions.next() {
                tr.1 = new_cell;
            }
        }
        (stats, exits)
    });
    // Highest index first: the tail particle a swap-remove moves into
    // an exit's place is never an exit still to remove.
    let mut stats = MoveStats::default();
    for (lane, mut i) in lane_out.into_iter().rev() {
        stats += lane;
        while i != EXITED {
            let next = buf.cell[i as usize];
            buf.swap_remove(i as usize);
            i = next;
        }
    }
    if let Some(p) = pump.filter(|_| stats.wall_hits + stats.pumped > 0) {
        p.rng.gen::<u64>();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::NozzleSpec;
    use particles::Particle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (TetMesh, SpeciesTable) {
        let m = NozzleSpec {
            nd: 6,
            nz: 10,
            ..NozzleSpec::default()
        }
        .generate();
        let (table, _h, _hp) = SpeciesTable::hydrogen_plasma(1.0, 1.0);
        (m, table)
    }

    /// Move every particle on the serial pool, no pump, no transition
    /// log.
    fn move_all(
        m: &TetMesh,
        buf: &mut ParticleBuffer,
        sp: &SpeciesTable,
        dt: f64,
        rng: &mut StdRng,
    ) -> MoveStats {
        let pool = Pool::serial();
        move_particles_pooled(m, buf, sp, dt, 300.0, rng, &pool, |_| true, None, None)
    }

    fn particle_at(m: &TetMesh, cell: usize, vel: Vec3) -> Particle {
        Particle {
            pos: m.centroids[cell],
            vel,
            cell: cell as u32,
            species: 0,
            id: 1,
        }
    }

    #[test]
    fn stationary_particles_stay_put() {
        let (m, sp) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = ParticleBuffer::new();
        buf.push(particle_at(&m, 0, Vec3::ZERO));
        let before = buf.get(0);
        let stats = move_all(&m, &mut buf, &sp, 1e-6, &mut rng);
        assert_eq!(stats, MoveStats::default());
        assert_eq!(buf.get(0), before);
    }

    #[test]
    fn slow_particle_moves_within_cell() {
        let (m, sp) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = ParticleBuffer::new();
        let cell = m.num_cells() / 2;
        let v = Vec3::new(0.0, 0.0, 1.0); // 1 m/s: moves 1e-9 m in 1 ns
        buf.push(particle_at(&m, cell, v));
        let stats = move_all(&m, &mut buf, &sp, 1e-9, &mut rng);
        let p = buf.get(0);
        assert_eq!(p.cell as usize, cell);
        assert!((p.pos.z - (m.centroids[cell].z + 1e-9)).abs() < 1e-15);
        assert!(m.contains(cell, p.pos, 1e-9));
        // no face crossed: the flight is exactly `p + v·dt`, bit for bit
        assert_eq!(stats, MoveStats::default());
        let bits = |a: Vec3| [a.x, a.y, a.z].map(f64::to_bits);
        assert_eq!(bits(p.pos), bits(m.centroids[cell] + v * 1e-9));
        assert_eq!(bits(p.vel), bits(v));
    }

    #[test]
    fn fast_particle_exits_through_outlet() {
        let (m, sp) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = ParticleBuffer::new();
        // near-axis cell, huge +z velocity: must fly out the outlet
        let cell = mesh::locate::locate_brute(&m, Vec3::new(0.0012, 0.0012, 0.001)).unwrap();
        buf.push(particle_at(&m, cell, Vec3::new(0.0, 0.0, 1e6)));
        let stats = move_all(&m, &mut buf, &sp, 1e-3, &mut rng);
        assert_eq!(stats.exited, 1);
        assert!(buf.is_empty());
        assert!(stats.crossings > 1);
    }

    #[test]
    fn wall_hit_reflects_and_keeps_particle_inside() {
        let (m, sp) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = ParticleBuffer::new();
        // radial velocity towards the cylinder wall from mid-domain
        let cell = mesh::locate::locate_brute(&m, Vec3::new(0.0012, 0.0, 0.01)).unwrap();
        buf.push(particle_at(&m, cell, Vec3::new(5e4, 0.0, 0.0)));
        let stats = move_all(&m, &mut buf, &sp, 2e-7, &mut rng);
        assert!(stats.wall_hits >= 1, "{stats:?}");
        assert_eq!(buf.len(), 1);
        let p = buf.get(0);
        assert!(
            m.contains(p.cell as usize, p.pos, 1e-6),
            "reflected particle must stay in the domain"
        );
        // diffuse reflection thermalizes: speed should be of thermal
        // order, far below the 50 km/s impact speed
        assert!(p.vel.norm() < 2e4, "{}", p.vel.norm());
    }

    #[test]
    fn cell_ids_track_positions() {
        let (m, sp) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = ParticleBuffer::new();
        for k in 0..50 {
            let cell = (k * 37) % m.num_cells();
            let v = Vec3::new(
                (k as f64 - 25.0) * 300.0,
                (k as f64 % 7.0 - 3.0) * 500.0,
                8e3,
            );
            buf.push(particle_at(&m, cell, v));
        }
        move_all(&m, &mut buf, &sp, 2e-7, &mut rng);
        for p in buf.iter() {
            assert!(
                m.contains(p.cell as usize, p.pos, 1e-5),
                "cell id out of sync with position"
            );
        }
    }

    /// Everything a move leaves behind, bit for bit: the six scalar
    /// lanes, `cell`, `species`, `id` (in buffer order), the stats, the
    /// transitions and both RNG end states.
    type MoveResult = (
        Vec<u64>,
        (Vec<u32>, Vec<u8>, Vec<u64>),
        MoveStats,
        Vec<(u32, u32)>,
        StdRng,
        StdRng,
    );

    /// Move the particles of species `moved` in `buf` for 4e-7 s on
    /// `lanes` lanes of at least one moved particle each, logging
    /// transitions, with a 50 % pump when `pumped`.
    fn move_on(
        m: &TetMesh,
        sp: &SpeciesTable,
        mut buf: ParticleBuffer,
        moved: u8,
        lanes: usize,
        pumped: bool,
    ) -> MoveResult {
        let mut rng = StdRng::seed_from_u64(21);
        let mut pump_rng = StdRng::seed_from_u64(77);
        let mut transitions = Vec::new();
        let pump = pumped.then_some(Pump {
            prob: 0.5,
            rng: &mut pump_rng,
        });
        let stats = move_with_floor(
            m,
            &mut buf,
            sp,
            4e-7,
            300.0,
            &mut rng,
            &Pool::new(lanes),
            |s| s == moved,
            Some(&mut transitions),
            pump,
            1,
        );
        let bits = [&buf.px, &buf.py, &buf.pz, &buf.vx, &buf.vy, &buf.vz]
            .iter()
            .flat_map(|lane| lane.iter().map(|x| x.to_bits()))
            .collect();
        let ids = (buf.cell.clone(), buf.species.clone(), buf.id.clone());
        (bits, ids, stats, transitions, rng, pump_rng)
    }

    #[test]
    fn the_move_is_the_same_on_any_lane_count() {
        let (m, sp) = setup();
        let near_outlet = mesh::locate::locate_brute(&m, Vec3::new(0.0012, 0.0012, 0.001)).unwrap();
        let mid = mesh::locate::locate_brute(&m, Vec3::new(0.0012, 0.0, 0.01)).unwrap();
        let mut buf = ParticleBuffer::new();
        let mut push = |cell: usize, vel: Vec3, species: u8| {
            let mut p = particle_at(&m, cell, vel);
            p.species = species;
            p.id = buf.len() as u64;
            buf.push(p);
        };
        for k in 0..160usize {
            // a quarter each: towards the wall, out of the outlet, slow
            // interior flight, and ions the predicate skips
            match k % 4 {
                0 => push((k * 23) % m.num_cells(), Vec3::new(4e4, -1e3, 3e3), 0),
                1 => push(near_outlet, Vec3::new(0.0, 0.0, 1e6), 0),
                2 => push((k * 13) % m.num_cells(), Vec3::new(40.0, -25.0, 300.0), 0),
                _ => push((k * 7) % m.num_cells(), Vec3::new(4e4, 0.0, 0.0), 1),
            }
        }
        // a wall flight, then two exits at the tail: the first exits
        // removed are the buffer's last particles
        push(mid, Vec3::new(5e4, 0.0, 0.0), 0);
        push(near_outlet, Vec3::new(0.0, 0.0, 1e6), 0);
        push(near_outlet, Vec3::new(0.0, 0.0, 1e6), 0);
        // PIC_Move's call shape: the same flights as ions (species 1),
        // the neutrals skipped, no pump, reflections keyed off the main RNG.
        let mut ions = buf.clone();
        ions.species.iter_mut().for_each(|s| *s ^= 1);
        for (buf, moved, pumped) in [(&buf, 0, false), (&buf, 0, true), (&ions, 1, false)] {
            let one = move_on(&m, &sp, buf.clone(), moved, 1, pumped);
            let stats = one.2;
            assert!(
                stats.wall_hits > 0 && stats.exited > 0 && (stats.pumped > 0) == pumped,
                "test premise: every outcome occurs, {stats:?}"
            );
            assert!(stats.crossings > stats.wall_hits + stats.exited);
            // one transition per moved particle, in buffer order
            let old: Vec<u32> = (0..buf.len())
                .filter(|&i| buf.species[i] == moved)
                .map(|i| buf.cell[i])
                .collect();
            assert_eq!(one.3.iter().map(|&(c, _)| c).collect::<Vec<_>>(), old);
            // one key from the main stream, and one from the pump's
            // stream when a wall is reached under a pump
            let after = |seed, keys| {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..keys {
                    rng.gen::<u64>();
                }
                rng
            };
            assert_eq!(
                (&one.4, &one.5),
                (&after(21, 1), &after(77, usize::from(pumped)))
            );
            for lanes in 2..=7 {
                let pooled = move_on(&m, &sp, buf.clone(), moved, lanes, pumped);
                assert!(pooled == one, "lanes={lanes} pumped={pumped} moved={moved}");
            }
        }
    }

    #[test]
    fn keyed_wall_reflection_has_the_diffuse_wall_moments() {
        let (m, sp) = setup();
        // a wall face on the cylinder (its normal nearly radial), and
        // its cell: a flight from the cell's centroid to the face's
        // centroid crosses that face first
        let (cell, face) = (0..m.num_cells())
            .flat_map(|c| (0..4).map(move |f| (c, f)))
            .find(|&(c, f)| {
                let n = m.face_centroid_normal(c, f).1;
                m.neighbors[c][f] == FaceTag::Boundary(BoundaryKind::Wall)
                    && n.z.abs() < 0.1 * n.norm()
            })
            .expect("a cylinder wall face");
        let (fc, n) = m.face_centroid_normal(cell, face);
        let inward = -n.normalized();
        let to_wall = fc - m.centroids[cell];
        // 1e5 m/s at the wall; a millionth of the flight is left after
        // the hit, far too little to reach another face
        let (speed, n_particles) = (1e5, 4000);
        let dt = to_wall.norm() / speed * (1.0 + 1e-6);
        let reflect = |seed: u64| {
            let mut buf = ParticleBuffer::new();
            for k in 0..n_particles {
                let mut p = particle_at(&m, cell, to_wall.normalized() * speed);
                p.id = k;
                buf.push(p);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let stats = move_all(&m, &mut buf, &sp, dt, &mut rng);
            assert_eq!(stats.wall_hits, n_particles as usize, "{stats:?}");
            assert_eq!(buf.len(), n_particles as usize);
            (0..buf.len()).map(|i| buf.vel(i)).collect::<Vec<Vec3>>()
        };
        let vels = reflect(8);
        let n = vels.len() as f64;
        let sigma2 = particles::KB * 300.0 / sp.get(0).mass;
        // inward normal speed: Rayleigh of scale σ, mean σ√(π/2)
        let normal: Vec<f64> = vels.iter().map(|v| v.dot(inward)).collect();
        assert!(normal.iter().all(|&s| s > 0.0));
        let mean = normal.iter().sum::<f64>() / n;
        let expected = (std::f64::consts::PI * sigma2 / 2.0).sqrt();
        let sd = (sigma2 * (4.0 - std::f64::consts::PI) / 2.0).sqrt();
        assert!(
            (mean - expected).abs() < 3.0 * sd / n.sqrt(),
            "mean normal speed {mean} vs {expected}"
        );
        // each tangential component: normal, variance σ²
        let t1 = inward.cross(Vec3::new(0.0, 0.0, 1.0)).normalized();
        let t2 = inward.cross(t1);
        for t in [t1, t2] {
            let c: Vec<f64> = vels.iter().map(|v| v.dot(t)).collect();
            let mean = c.iter().sum::<f64>() / n;
            let var = c.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            assert!(
                (var - sigma2).abs() < 3.0 * sigma2 * (2.0 / (n - 1.0)).sqrt(),
                "tangential variance {var} vs {sigma2}"
            );
        }
        // each flight draws its own numbers: a key that ignored the
        // particle index would reflect every particle alike
        let bits = |v: &Vec3| [v.x, v.y, v.z].map(f64::to_bits);
        let mut distinct: Vec<_> = vels.iter().map(bits).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            vels.len(),
            "two reflections share a velocity"
        );
        // and another move key reflects differently
        let again = reflect(9);
        assert!(vels.iter().zip(&again).all(|(a, b)| bits(a) != bits(b)));
    }

    #[test]
    fn pooled_removes_exited_and_keeps_rest_valid() {
        let (m, sp) = setup();
        let mut buf = ParticleBuffer::new();
        let near_outlet = mesh::locate::locate_brute(&m, Vec3::new(0.0012, 0.0012, 0.001)).unwrap();
        for k in 0..120u64 {
            // half fast exiting, half slow staying; ids distinguish
            let (cell, vel) = if k % 2 == 0 {
                (near_outlet, Vec3::new(0.0, 0.0, 1e6))
            } else {
                // stationary: guaranteed survivors
                ((k as usize * 17) % m.num_cells(), Vec3::ZERO)
            };
            let mut p = particle_at(&m, cell, vel);
            p.id = k;
            buf.push(p);
        }
        let mut rng = StdRng::seed_from_u64(13);
        let mut transitions = Vec::new();
        let stats = move_with_floor(
            &m,
            &mut buf,
            &sp,
            1e-3,
            300.0,
            &mut rng,
            &Pool::new(4),
            |_| true,
            Some(&mut transitions),
            None,
            1,
        );
        assert_eq!(stats.exited, 60, "{stats:?}");
        assert_eq!(buf.len(), 60);
        assert_eq!(transitions.len(), 120);
        assert_eq!(
            transitions.iter().filter(|&&(_, c)| c == EXITED).count(),
            60
        );
        // survivors are exactly the odd ids, still inside the domain
        let mut ids: Vec<u64> = buf.id.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..120).filter(|k| k % 2 == 1).collect::<Vec<_>>());
        for p in buf.iter() {
            assert!(m.contains(p.cell as usize, p.pos, 1e-5));
        }
    }

    #[test]
    fn full_pump_absorbs_every_wall_hit() {
        let (m, sp) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut pump_rng = StdRng::seed_from_u64(99);
        let mut buf = ParticleBuffer::new();
        // radial velocity towards the cylinder wall from mid-domain
        let cell = mesh::locate::locate_brute(&m, Vec3::new(0.0012, 0.0, 0.01)).unwrap();
        buf.push(particle_at(&m, cell, Vec3::new(5e4, 0.0, 0.0)));
        let stats = move_particles_pooled(
            &m,
            &mut buf,
            &sp,
            2e-7,
            300.0,
            &mut rng,
            &Pool::serial(),
            |_| true,
            None,
            Some(Pump {
                prob: 0.0,
                rng: &mut pump_rng,
            }),
        );
        assert_eq!(stats.pumped, 1, "{stats:?}");
        assert_eq!(stats.wall_hits, 0, "absorbed before reflecting");
        assert!(buf.is_empty(), "pumped particle must be removed");
    }

    #[test]
    fn no_pump_prob_one_is_bitwise_identical_to_disabled() {
        // prob = 1.0 exercises the pump decision path on its own
        // stream but must never touch the main stream: positions,
        // velocities and the caller RNG state match the disabled run
        // bit for bit, serial and pooled.
        let (m, sp) = setup();
        let fill = |buf: &mut ParticleBuffer| {
            for k in 0..80 {
                let cell = (k * 23) % m.num_cells();
                let mut p = particle_at(&m, cell, Vec3::new(4e4, -1e3, 3e3));
                p.id = k as u64;
                buf.push(p);
            }
        };
        let run = |pump_on: bool, lanes: usize| {
            let mut buf = ParticleBuffer::new();
            fill(&mut buf);
            let mut rng = StdRng::seed_from_u64(21);
            let mut pump_rng = StdRng::seed_from_u64(77);
            let pump = pump_on.then_some(Pump {
                prob: 1.0,
                rng: &mut pump_rng,
            });
            let stats = move_with_floor(
                &m,
                &mut buf,
                &sp,
                2e-7,
                300.0,
                &mut rng,
                &Pool::new(lanes),
                |_| true,
                None,
                pump,
                1,
            );
            (buf, stats, rng)
        };
        for lanes in [1, 3] {
            let (a, sa, rng_a) = run(false, lanes);
            let (b, sb, rng_b) = run(true, lanes);
            assert!(sa.wall_hits > 0, "test premise: walls were hit");
            assert_eq!(sa, sb);
            assert_eq!(sb.pumped, 0);
            assert_eq!(rng_a, rng_b, "main stream must be untouched");
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert_eq!(a.get(i), b.get(i));
            }
        }
    }

    #[test]
    fn face_plane_table_moves_particles_bitwise_like_a_plain_mesh() {
        let (plain, sp) = setup();
        let cached = plain.clone().with_face_planes();
        let near_outlet =
            mesh::locate::locate_brute(&plain, Vec3::new(0.0012, 0.0012, 0.001)).unwrap();
        let mut buf = ParticleBuffer::new();
        for k in 0..150usize {
            // a third each: towards the wall, out of the outlet, slow
            // interior flight
            let (cell, vel) = match k % 3 {
                0 => ((k * 23) % plain.num_cells(), Vec3::new(4e4, -1e3, 3e3)),
                1 => (near_outlet, Vec3::new(0.0, 0.0, 1e6)),
                _ => ((k * 13) % plain.num_cells(), Vec3::new(40.0, -25.0, 300.0)),
            };
            let mut p = particle_at(&plain, cell, vel);
            p.id = k as u64;
            buf.push(p);
        }
        for lanes in [1, 3] {
            let a = move_on(&plain, &sp, buf.clone(), 0, lanes, true);
            let b = move_on(&cached, &sp, buf.clone(), 0, lanes, true);
            let stats = a.2;
            assert!(
                stats.wall_hits > 0 && stats.pumped > 0 && stats.exited > 0,
                "test premise: every outcome occurs, {stats:?}"
            );
            assert!(stats.crossings > stats.wall_hits + stats.exited);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn partial_pump_is_deterministic_and_between_extremes() {
        let (m, sp) = setup();
        let run = |prob: f64, seed: u64| {
            let mut buf = ParticleBuffer::new();
            for k in 0..120 {
                let cell = (k * 23) % m.num_cells();
                let mut p = particle_at(&m, cell, Vec3::new(5e4, 0.0, 0.0));
                p.id = k as u64;
                buf.push(p);
            }
            let mut rng = StdRng::seed_from_u64(31);
            let mut pump_rng = StdRng::seed_from_u64(seed);
            let stats = move_particles_pooled(
                &m,
                &mut buf,
                &sp,
                4e-7,
                300.0,
                &mut rng,
                &Pool::serial(),
                |_| true,
                None,
                Some(Pump {
                    prob,
                    rng: &mut pump_rng,
                }),
            );
            (buf.len(), stats)
        };
        let (n_half_a, s_half) = run(0.5, 5);
        let (n_half_b, _) = run(0.5, 5);
        assert_eq!(n_half_a, n_half_b, "seeded pump must be deterministic");
        assert!(s_half.pumped > 0, "{s_half:?}");
        let (n_full, s_full) = run(0.0, 5);
        let (n_none, s_none) = run(1.0, 5);
        assert_eq!(s_none.pumped, 0);
        assert!(s_full.pumped >= s_half.pumped);
        assert!(n_full <= n_half_a && n_half_a <= n_none);
    }

    #[test]
    fn energy_preserved_in_pure_interior_flight() {
        let (m, sp) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let mut buf = ParticleBuffer::new();
        let cell = mesh::locate::locate_brute(&m, Vec3::new(0.0, 0.0012, 0.005)).unwrap();
        let v = Vec3::new(0.0, 0.0, 9e3);
        buf.push(particle_at(&m, cell, v));
        let stats = move_all(&m, &mut buf, &sp, 1e-7, &mut rng);
        assert_eq!(stats.wall_hits, 0);
        // velocity unchanged by pure advection
        assert_eq!(buf.get(0).vel, v);
    }
}
