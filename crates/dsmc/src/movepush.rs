//! Ballistic particle movement with exact cell tracking (the paper's
//! *DSMC_Move* component; also reused by *PIC_Move* for the advection
//! half of the charged-particle push).
//!
//! Particles move in straight lines within a timestep, crossing cell
//! faces (possibly many), reflecting diffusely off walls at the wall
//! temperature, and leaving the domain through the outlet (or back
//! through the inlet).

use kernels::{fork_rng, Pool};
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

/// The serial body of [`move_particles_pooled`]: walk `buf` in order on
/// the caller's `rng`, removing exited particles as they leave (order
/// NOT preserved — removal is swap-based).
#[allow(clippy::too_many_arguments)]
fn move_serial<R: Rng, P: Fn(u8) -> bool>(
    mesh: &TetMesh,
    buf: &mut ParticleBuffer,
    species: &SpeciesTable,
    dt: f64,
    wall_temp: f64,
    rng: &mut R,
    pred: P,
    mut transitions: Option<&mut Vec<(u32, u32)>>,
    mut pump: Option<Pump<'_>>,
) -> MoveStats {
    let mut stats = MoveStats::default();
    let nudge_len = mesh.mean_cell_size() * NUDGE;
    let mut i = 0usize;
    while i < buf.len() {
        if !pred(buf.species[i]) {
            i += 1;
            continue;
        }
        let old_cell = buf.cell[i];
        let outcome = advance_one(
            mesh,
            species,
            buf.species[i],
            dt,
            wall_temp,
            nudge_len,
            rng,
            buf.pos(i),
            buf.vel(i),
            old_cell as usize,
            &mut stats,
            pump.as_mut(),
        );
        match outcome {
            None => {
                // outlet (or inlet, flying backwards): particle left
                buf.swap_remove(i);
                if let Some(tr) = transitions.as_deref_mut() {
                    tr.push((old_cell, EXITED));
                }
            }
            Some((r, v, cell)) => {
                buf.set_pos(i, r);
                buf.set_vel(i, v);
                buf.cell[i] = cell;
                if let Some(tr) = transitions.as_deref_mut() {
                    tr.push((old_cell, cell));
                }
                i += 1;
            }
        }
    }
    stats
}

/// Advance a single particle for `dt`: straight flight with face
/// crossings, diffuse wall reflection, loop capped to guard against
/// degenerate geometry. Returns the final `(pos, vel, cell)` or
/// `None` if the particle left the domain. A particle that crosses no
/// face lands on `r + v * dt` in the first iteration, cell and velocity
/// untouched.
#[allow(clippy::too_many_arguments)]
#[inline]
fn advance_one<R: Rng>(
    mesh: &TetMesh,
    species: &SpeciesTable,
    sp_id: u8,
    dt: f64,
    wall_temp: f64,
    nudge_len: f64,
    rng: &mut R,
    mut r: Vec3,
    mut v: Vec3,
    mut cell: usize,
    stats: &mut MoveStats,
    mut pump: Option<&mut Pump<'_>>,
) -> Option<(Vec3, Vec3, u32)> {
    let mut remaining = dt;
    // Unit direction of the current straight leg: `v` only changes at
    // a wall hit, so it is computed at the leg's first interior
    // crossing and dropped on reflection.
    let mut dir: Option<Vec3> = None;
    // A particle can cross many faces per step; cap the loop.
    for _ in 0..10_000 {
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
                        // Partial pump: the survival decision draws
                        // from its dedicated stream BEFORE any
                        // reflection sampling, so the main stream is
                        // untouched for absorbed particles and
                        // `prob == 1.0` never diverges from no-pump.
                        if let Some(p) = pump.as_deref_mut() {
                            if p.rng.gen::<f64>() >= p.prob {
                                stats.pumped += 1;
                                return None;
                            }
                        }
                        stats.wall_hits += 1;
                        let (_fc, n) = mesh.face_centroid_normal(cell, face);
                        let inward = -n.normalized();
                        let sp = species.get(sp_id);
                        // diffuse reflection: fresh Maxwellian at
                        // wall temperature, with a flux-weighted
                        // inward normal component
                        let mut vnew = maxwellian(rng, wall_temp, sp.mass, Vec3::ZERO);
                        let vn = vnew.dot(inward);
                        vnew -= inward * vn; // tangential part
                        vnew += inward * flux_normal_speed(rng, wall_temp, sp.mass);
                        v = vnew;
                        dir = None;
                        r += inward * nudge_len;
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

/// Move every particle of `buf` whose species id satisfies `pred` for
/// `dt` (DSMC timesteps move neutrals, PIC timesteps charged particles
/// — paper §III-B), updating positions, velocities and cell ids in
/// place and removing the particles that left. `wall_temp` drives the
/// diffuse reflection. Each moved particle appends one
/// `(old_cell, new_cell)` record to `transitions` (`new_cell ==
/// EXITED` if it left), from which the cluster driver attributes
/// per-rank work and builds the migration byte matrix.
///
/// Particles are partitioned into one
/// contiguous chunk per pool worker; each chunk walks its particles
/// with an independent RNG stream forked off one draw from `rng`
/// (wall reflections therefore differ from the serial path, exactly
/// like particles on different MPI ranks use different streams).
/// Exited particles are marked per-chunk and removed in a single
/// order-preserving compaction afterwards.
///
/// With a serial pool the particles are walked in order on the
/// caller's `rng` and exited ones are swap-removed as they leave.
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
    mut transitions: Option<&mut Vec<(u32, u32)>>,
    mut pump: Option<Pump<'_>>,
) -> MoveStats {
    if pool.is_serial() || buf.len() < 2 {
        return move_serial(
            mesh,
            buf,
            species,
            dt,
            wall_temp,
            rng,
            pred,
            transitions,
            pump,
        );
    }
    let base: u64 = rng.gen();
    // The pump decision stream forks per chunk exactly like the main
    // stream, off one draw from its own RNG — never from `rng`.
    let pump_cfg: Option<(f64, u64)> = pump.as_mut().map(|p| (p.prob, p.rng.gen()));
    let nudge_len = mesh.mean_cell_size() * NUDGE;
    let n = buf.len();
    let ranges = kernels::chunk_ranges(n, pool.workers());

    // Carve the six scalar lanes + cell ids into disjoint per-chunk
    // mutable slices: (chunk offset, [px py pz vx vy vz], cells).
    type SoaChunk<'a> = (usize, [&'a mut [f64]; 6], &'a mut [u32]);
    let species_arr: &[u8] = &buf.species;
    let px = kernels::carve_mut(&ranges, &mut buf.px);
    let py = kernels::carve_mut(&ranges, &mut buf.py);
    let pz = kernels::carve_mut(&ranges, &mut buf.pz);
    let vx = kernels::carve_mut(&ranges, &mut buf.vx);
    let vy = kernels::carve_mut(&ranges, &mut buf.vy);
    let vz = kernels::carve_mut(&ranges, &mut buf.vz);
    let cells = kernels::carve_mut(&ranges, &mut buf.cell);
    let mut parts: Vec<SoaChunk<'_>> = Vec::with_capacity(ranges.len());
    let mut off = 0usize;
    let lanes = px
        .into_iter()
        .zip(py)
        .zip(pz)
        .zip(vx)
        .zip(vy)
        .zip(vz)
        .zip(cells);
    for ((((((cpx, cpy), cpz), cvx), cvy), cvz), cc) in lanes {
        let len = cc.len();
        parts.push((off, [cpx, cpy, cpz, cvx, cvy, cvz], cc));
        off += len;
    }

    let pred = &pred;
    let results = pool.run_parts(parts, |ci, (off, [px, py, pz, vx, vy, vz], cell)| {
        let mut rng = fork_rng(base, ci as u64);
        let mut chunk_pump_rng = pump_cfg.map(|(_, pb)| fork_rng(pb, ci as u64));
        let mut chunk_pump = match (&pump_cfg, &mut chunk_pump_rng) {
            (Some((prob, _)), Some(r)) => Some(Pump {
                prob: *prob,
                rng: r,
            }),
            _ => None,
        };
        let mut stats = MoveStats::default();
        let mut exited: Vec<u32> = Vec::new();
        let mut trans: Vec<(u32, u32)> = Vec::new();
        for k in 0..px.len() {
            let gi = off + k;
            if !pred(species_arr[gi]) {
                continue;
            }
            let old_cell = cell[k];
            let outcome = advance_one(
                mesh,
                species,
                species_arr[gi],
                dt,
                wall_temp,
                nudge_len,
                &mut rng,
                Vec3::new(px[k], py[k], pz[k]),
                Vec3::new(vx[k], vy[k], vz[k]),
                old_cell as usize,
                &mut stats,
                chunk_pump.as_mut(),
            );
            match outcome {
                None => {
                    exited.push(gi as u32);
                    trans.push((old_cell, EXITED));
                }
                Some((r, v, c)) => {
                    px[k] = r.x;
                    py[k] = r.y;
                    pz[k] = r.z;
                    vx[k] = v.x;
                    vy[k] = v.y;
                    vz[k] = v.z;
                    cell[k] = c;
                    trans.push((old_cell, c));
                }
            }
        }
        (stats, exited, trans)
    });

    let mut stats = MoveStats::default();
    let mut keep = vec![true; n];
    let mut any_exit = false;
    for (s, exited, trans) in results {
        stats.exited += s.exited;
        stats.wall_hits += s.wall_hits;
        stats.crossings += s.crossings;
        stats.pumped += s.pumped;
        for gi in exited {
            keep[gi as usize] = false;
            any_exit = true;
        }
        if let Some(tr) = transitions.as_deref_mut() {
            tr.extend(trans);
        }
    }
    if any_exit {
        buf.compact(&keep);
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

    #[test]
    fn pooled_matches_serial_without_wall_hits() {
        // interior-only flight draws no random numbers, so the pooled
        // mover must reproduce the serial result bitwise for every
        // worker count
        let (m, sp) = setup();
        let make = || {
            let mut buf = ParticleBuffer::new();
            for k in 0..200 {
                let cell = (k * 13) % m.num_cells();
                let v = Vec3::new(
                    ((k % 11) as f64 - 5.0) * 40.0,
                    ((k % 5) as f64 - 2.0) * 40.0,
                    (k % 7) as f64 * 50.0,
                );
                buf.push(particle_at(&m, cell, v));
            }
            buf
        };
        let mut serial = make();
        let mut rng = StdRng::seed_from_u64(7);
        let s_serial = move_all(&m, &mut serial, &sp, 2e-8, &mut rng);
        assert_eq!(s_serial.wall_hits, 0, "test premise: no RNG used");
        assert_eq!(s_serial.exited, 0);
        for workers in [2usize, 4, 7] {
            let mut par = make();
            let mut rng = StdRng::seed_from_u64(7);
            let s_par = move_particles_pooled(
                &m,
                &mut par,
                &sp,
                2e-8,
                300.0,
                &mut rng,
                &Pool::new(workers),
                |_| true,
                None,
                None,
            );
            assert_eq!(s_serial, s_par);
            assert_eq!(par.len(), serial.len());
            for i in 0..par.len() {
                assert_eq!(par.get(i), serial.get(i), "workers={workers} i={i}");
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
        let stats = move_particles_pooled(
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
        let run = |pump_on: bool, pool: &Pool| {
            let mut buf = ParticleBuffer::new();
            fill(&mut buf);
            let mut rng = StdRng::seed_from_u64(21);
            let mut pump_rng = StdRng::seed_from_u64(77);
            let pump = pump_on.then_some(Pump {
                prob: 1.0,
                rng: &mut pump_rng,
            });
            let stats = move_particles_pooled(
                &m,
                &mut buf,
                &sp,
                2e-7,
                300.0,
                &mut rng,
                pool,
                |_| true,
                None,
                pump,
            );
            (buf, stats, rng)
        };
        for pool in [Pool::serial(), Pool::new(3)] {
            let (a, sa, rng_a) = run(false, &pool);
            let (b, sb, rng_b) = run(true, &pool);
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
        let run = |m: &TetMesh, pool: &Pool| {
            let mut buf = ParticleBuffer::new();
            for k in 0..150usize {
                // a third each: towards the wall, out of the outlet,
                // slow interior flight
                let (cell, vel) = match k % 3 {
                    0 => ((k * 23) % m.num_cells(), Vec3::new(4e4, -1e3, 3e3)),
                    1 => (near_outlet, Vec3::new(0.0, 0.0, 1e6)),
                    _ => ((k * 13) % m.num_cells(), Vec3::new(40.0, -25.0, 300.0)),
                };
                let mut p = particle_at(m, cell, vel);
                p.id = k as u64;
                buf.push(p);
            }
            let mut rng = StdRng::seed_from_u64(21);
            let mut pump_rng = StdRng::seed_from_u64(77);
            let mut transitions = Vec::new();
            let stats = move_particles_pooled(
                m,
                &mut buf,
                &sp,
                4e-7,
                300.0,
                &mut rng,
                pool,
                |_| true,
                Some(&mut transitions),
                Some(Pump {
                    prob: 0.5,
                    rng: &mut pump_rng,
                }),
            );
            let lanes: Vec<u64> = [&buf.px, &buf.py, &buf.pz, &buf.vx, &buf.vy, &buf.vz]
                .iter()
                .flat_map(|lane| lane.iter().map(|x| x.to_bits()))
                .collect();
            let ids = (buf.cell.clone(), buf.species.clone(), buf.id.clone());
            (lanes, ids, stats, transitions, rng, pump_rng)
        };
        for pool in [Pool::serial(), Pool::new(3)] {
            let a = run(&plain, &pool);
            let b = run(&cached, &pool);
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
