//! Direct Simulation Monte Carlo on the coarse tetrahedral grid
//! (paper §III-B): Maxwellian inlet injection, ballistic movement
//! with exact cell tracking and diffuse walls, Bird NTC collisions
//! with the VHS model, and hydrogen dissociation/recombination
//! chemistry.

pub mod collide;
pub mod cross;
pub mod inject;
pub mod movepush;
pub mod react;

pub use collide::{CollideStats, CollisionEvent, CollisionModel};
pub use cross::{CrossCollisionModel, CrossStats};
pub use inject::Injector;
pub use movepush::{move_particles_pooled, MoveStats, Pump, EXITED};
pub use react::{ChemistryModel, ReactStats};
