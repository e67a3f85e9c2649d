//! Ballistic particle movement with exact cell tracking (the paper's
//! *DSMC_Move* component; also reused by *PIC_Move* for the advection
//! half of the charged-particle push).
//!
//! Particles move in straight lines within a timestep, crossing cell
//! faces (possibly many), reflecting diffusely off walls at the wall
//! temperature, and leaving the domain through the outlet (or back
//! through the inlet).

use kernels::{carve_mut, chunk_ranges, team, Pool};
use mesh::{first_exit, BoundaryKind, FaceTag, TetMesh, Vec3};
use particles::sample::{flux_normal_speed, maxwellian};
use particles::{ParticleBuffer, SpeciesTable};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

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
/// `0 = full pump, 1 = no pump`). Each wall hit first decides
/// survival on the dedicated `rng` stream — a survivor reflects
/// diffusely exactly as without pumping, an absorbed particle is
/// removed. Because the decision never touches the mover's main RNG,
/// `prob == 1.0` is bitwise identical to running with no pump at all.
pub struct Pump<'a> {
    /// Survival probability per wall hit, in `[0, 1]`.
    pub prob: f64,
    /// Dedicated decision stream (never the mover's main RNG).
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

/// Moved particles a lane of the parallel pass takes at least: a
/// spawned lane costs 41–48 µs (`kernels.dispatch_us`), ≈ 4,096
/// flights of ≈ 100–180 ns take several times that.
const PARTICLES_PER_LANE: usize = 1 << 12;

/// Parallel-pass marks in the replay's per-particle scratch, beside
/// [`EXITED`]; any other entry is the cell a flight landed in.
/// `AT_WALL`: the flight reached a wall and is flown again by the
/// replay. `SKIPPED`: not selected by the predicate.
const AT_WALL: u32 = u32::MAX - 1;
const SKIPPED: u32 = u32::MAX - 2;

/// Where one call of [`advance`] left a particle.
enum Flight {
    /// Inside the domain at `(r, v, cell)`, its time used up.
    Landed(Vec3, Vec3, u32),
    /// Left through an open boundary, or absorbed by the pump.
    Gone,
    /// Reached a wall face and was dropped there (`STOP_AT_WALL` only).
    AtWall,
}

/// Fly one particle for `remaining` seconds: straight legs with face
/// crossings, at most [`MAX_LEGS`] of them. A particle that crosses no
/// face lands on `r + v·remaining` in its first leg, cell and velocity
/// untouched.
///
/// At a wall face the partial pump first decides survival on its
/// dedicated stream, before any reflection draw, so the main stream is
/// untouched for an absorbed particle and `prob == 1.0` never diverges
/// from no pump. A survivor reflects diffusely: `v` becomes a fresh
/// Maxwellian at the wall temperature with a flux-weighted inward
/// normal component, drawn from `rng`, and `r` is nudged off the wall.
/// Under `STOP_AT_WALL` the flight returns [`Flight::AtWall`] there
/// instead, so it draws nothing from `rng` or `pump`.
///
/// Kept out of line (`#[inline]`, which LLVM declines here): inlined
/// into the walk loop (`#[inline(always)]`) the serial walk was 8–11 %
/// slower.
#[allow(clippy::too_many_arguments)]
#[inline]
fn advance<R: Rng, const STOP_AT_WALL: bool>(
    mesh: &TetMesh,
    species: &SpeciesTable,
    sp_id: u8,
    wall_temp: f64,
    nudge_len: f64,
    rng: &mut R,
    mut r: Vec3,
    mut v: Vec3,
    mut cell: usize,
    mut remaining: f64,
    stats: &mut MoveStats,
    mut pump: Option<&mut Pump<'_>>,
) -> Flight {
    // Unit direction of the current straight leg: `v` only changes at
    // a wall hit, so it is computed at the leg's first interior
    // crossing and dropped on reflection.
    let mut dir: Option<Vec3> = None;
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
                        r += *dir.get_or_insert_with(|| v.normalized()) * nudge_len;
                    }
                    FaceTag::Boundary(BoundaryKind::Wall) => {
                        if STOP_AT_WALL {
                            return Flight::AtWall;
                        }
                        if let Some(p) = pump.as_deref_mut() {
                            if p.rng.gen::<f64>() >= p.prob {
                                stats.pumped += 1;
                                return Flight::Gone;
                            }
                        }
                        stats.wall_hits += 1;
                        let (_fc, n) = mesh.face_centroid_normal(cell, face);
                        let inward = -n.normalized();
                        let sp = species.get(sp_id);
                        v = maxwellian(rng, wall_temp, sp.mass, Vec3::ZERO);
                        v -= inward * v.dot(inward); // tangential part
                        v += inward * flux_normal_speed(rng, wall_temp, sp.mass);
                        r += inward * nudge_len;
                        dir = None;
                    }
                    FaceTag::Boundary(_) => {
                        stats.exited += 1;
                        return Flight::Gone;
                    }
                }
            }
        }
    }
    Flight::Landed(r, v, cell as u32)
}

/// The RNG of the parallel pass. Its flights stop at their first
/// wall, before the pump decision or any reflection draw, so nothing
/// is ever drawn from it.
struct NoDraws;

impl RngCore for NoDraws {
    fn next_u64(&mut self) -> u64 {
        unreachable!("a flight stopped at its first wall draws nothing")
    }
}

/// One lane's share of the parallel pass: the particles
/// `start..start + flown.len()`, with the lanes it writes.
struct Chunk<'a> {
    start: usize,
    pos: [&'a mut [f64]; 3],
    flown: &'a mut [u32],
}

/// Move every particle of `buf` whose species id satisfies `pred` for
/// `dt` (DSMC timesteps move neutrals, PIC timesteps charged particles
/// — paper §III-B), updating positions, velocities and cell ids in
/// place and removing the particles that left. `wall_temp` drives the
/// diffuse reflection. Each moved particle appends one
/// `(old_cell, new_cell)` record to `transitions` (`new_cell ==
/// EXITED` if it left), from which the cluster driver attributes
/// per-rank work and builds the migration byte matrix.
///
/// The result is the serial walk's, bit for bit, on any pool: walk
/// `buf` in order, draw reflections from `rng` (and pump decisions
/// from the pump's stream) as the particles hit walls, swap-remove a
/// particle that left — buffer order, positions, velocities, cells,
/// [`MoveStats`], transitions and both RNG end states. With two or
/// more workers and at least `PARTICLES_PER_LANE` moved particles per
/// lane it runs in two passes:
///
/// 1. The lanes fly contiguous chunks of the buffer in parallel, on
///    an RNG that is never drawn. A flight that hits no wall ends
///    where the serial walk would end it: a landing writes its
///    position in place and its cell to a 4-byte scratch entry the
///    caller allocated (helper lanes allocate nothing), an exit is
///    marked there. A flight that reaches a wall is dropped and
///    marked, its crossings uncounted.
/// 2. The caller's in-order walk gives landings their cell,
///    swap-removes exits (the scratch in lockstep with the buffer) and
///    flies every marked wall flight again from its start, with the
///    serial walk's own code on `rng` and the pump stream.
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
    mut transitions: Option<&mut Vec<(u32, u32)>>,
    mut pump: Option<Pump<'_>>,
    per_lane: usize,
) -> MoveStats {
    let nudge_len = mesh.mean_cell_size() * NUDGE;
    let mut stats = MoveStats::default();
    let lanes = if pool.is_serial() {
        1
    } else {
        let moved = buf.species.iter().filter(|&&s| pred(s)).count();
        pool.workers().min(moved / per_lane)
    };
    // The parallel pass's entry per particle; empty for the serial walk.
    let mut flown: Vec<u32> = Vec::new();
    if lanes >= 2 {
        let runs = chunk_ranges(buf.len(), lanes);
        flown = vec![SKIPPED; buf.len()];
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
        let (vel, cell, sp_ids): ([&[f64]; 3], &[u32], &[u8]) = ([vx, vy, vz], cell, sp_ids);
        let chunks = runs
            .iter()
            .zip(carve_mut(&runs, px))
            .zip(carve_mut(&runs, py))
            .zip(carve_mut(&runs, pz))
            .zip(carve_mut(&runs, &mut flown))
            .map(|((((run, x), y), z), flown)| Chunk {
                start: run.start,
                pos: [x, y, z],
                flown,
            })
            .collect();
        let pred = &pred;
        let lane_stats = team(chunks, |_, chunk: Chunk<'_>, _| {
            let Chunk {
                start,
                pos: [x, y, z],
                flown,
            } = chunk;
            let mut stats = MoveStats::default();
            for (k, entry) in flown.iter_mut().enumerate() {
                let i = start + k;
                if !pred(sp_ids[i]) {
                    continue;
                }
                let mut own = MoveStats::default();
                *entry = match advance::<_, true>(
                    mesh,
                    species,
                    sp_ids[i],
                    wall_temp,
                    nudge_len,
                    &mut NoDraws,
                    Vec3::new(x[k], y[k], z[k]),
                    Vec3::new(vel[0][i], vel[1][i], vel[2][i]),
                    cell[i] as usize,
                    dt,
                    &mut own,
                    None,
                ) {
                    Flight::Landed(r, _, c) => {
                        (x[k], y[k], z[k]) = (r.x, r.y, r.z);
                        c
                    }
                    Flight::Gone => EXITED,
                    // flown again from its start by the walk, which
                    // counts all its crossings
                    Flight::AtWall => {
                        *entry = AT_WALL;
                        continue;
                    }
                };
                stats += own;
            }
            stats
        });
        for s in lane_stats {
            stats += s;
        }
    }

    // The serial walk; after the parallel pass, its in-order replay.
    let mut i = 0usize;
    while i < buf.len() {
        let entry = match flown.get(i) {
            Some(&entry) => entry,
            None if pred(buf.species[i]) => AT_WALL,
            None => SKIPPED,
        };
        let old_cell = buf.cell[i];
        let new_cell = match entry {
            SKIPPED => {
                i += 1;
                continue;
            }
            AT_WALL => match advance::<_, false>(
                mesh,
                species,
                buf.species[i],
                wall_temp,
                nudge_len,
                rng,
                buf.pos(i),
                buf.vel(i),
                old_cell as usize,
                dt,
                &mut stats,
                pump.as_mut(),
            ) {
                Flight::Landed(r, v, c) => {
                    buf.set_pos(i, r);
                    buf.set_vel(i, v);
                    c
                }
                Flight::Gone => EXITED,
                Flight::AtWall => unreachable!("only the parallel pass stops at a wall"),
            },
            landed_or_exited => landed_or_exited,
        };
        if let Some(tr) = transitions.as_deref_mut() {
            tr.push((old_cell, new_cell));
        }
        if new_cell == EXITED {
            // the tail particle now at `i` is the walk's next
            buf.swap_remove(i);
            if !flown.is_empty() {
                flown.swap_remove(i);
            }
        } else {
            buf.cell[i] = new_cell;
            i += 1;
        }
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

    /// Move every particle on the serial pool (the in-order walk on the
    /// caller's `rng`), no pump, no transition log.
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
    /// `lanes` lanes of at least one moved particle each (1 = the
    /// serial walk), logging transitions, with a 50 % pump when
    /// `pumped`.
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
    fn pooled_move_is_the_serial_walk_bit_for_bit() {
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
        // The walk's first exit (particle 1) swaps in the tail: an exit,
        // then another exit, then a flight the lanes dropped at the wall,
        // which the replay flies again at position 1.
        push(mid, Vec3::new(5e4, 0.0, 0.0), 0);
        push(near_outlet, Vec3::new(0.0, 0.0, 1e6), 0);
        push(near_outlet, Vec3::new(0.0, 0.0, 1e6), 0);
        // PIC_Move's call shape: the same flights as ions (species 1),
        // the neutrals skipped, no pump, reflections on the main RNG.
        let mut ions = buf.clone();
        ions.species.iter_mut().for_each(|s| *s ^= 1);
        for (buf, moved, pumped) in [(&buf, 0, false), (&buf, 0, true), (&ions, 1, false)] {
            let serial = move_on(&m, &sp, buf.clone(), moved, 1, pumped);
            let stats = serial.2;
            assert!(
                stats.wall_hits > 0 && stats.exited > 0 && (stats.pumped > 0) == pumped,
                "test premise: every outcome occurs, {stats:?}"
            );
            assert!(stats.crossings > stats.wall_hits + stats.exited);
            let walk = &serial.3;
            assert!(
                walk[1..4].iter().all(|&(_, c)| c == EXITED) && walk[4].0 == mid as u32,
                "test premise: two exits, then the wall flight, swapped into position 1"
            );
            for lanes in 2..=7 {
                let pooled = move_on(&m, &sp, buf.clone(), moved, lanes, pumped);
                assert!(
                    pooled == serial,
                    "lanes={lanes} pumped={pumped} moved={moved}"
                );
            }
        }
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
