//! # skywalker-sim
//!
//! A deterministic discrete-event simulation (DES) engine, the substrate on
//! which the SkyWalker reproduction runs its experiments.
//!
//! The engine is domain-agnostic: it delivers user-defined events to a
//! [`World`] in virtual-time order with FIFO tie-breaking, so a simulation
//! is a pure function of its initial state and root RNG seed. All stochastic
//! behaviour flows through [`DetRng`] streams derived from a root seed plus
//! stable component labels, which keeps runs reproducible and lets
//! experiments vary one component without perturbing others.
//!
//! # Examples
//!
//! ```
//! use skywalker_sim::{DetRng, Engine, Scheduler, SimDuration, SimTime, World};
//!
//! /// An M/D/1 queue: Poisson arrivals, fixed service time.
//! struct Queue {
//!     rng: DetRng,
//!     busy_until: SimTime,
//!     served: u32,
//! }
//!
//! enum Ev {
//!     Arrival,
//!     Done,
//! }
//!
//! impl World for Queue {
//!     type Event = Ev;
//!
//!     fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         match ev {
//!             Ev::Arrival => {
//!                 let start = if self.busy_until > now { self.busy_until } else { now };
//!                 let finish = start + SimDuration::from_millis(10);
//!                 self.busy_until = finish;
//!                 sched.at(finish, Ev::Done);
//!                 if self.served < 100 {
//!                     let gap = SimDuration::from_secs_f64(self.rng.exponential(50.0));
//!                     sched.after(gap, Ev::Arrival);
//!                 }
//!             }
//!             Ev::Done => self.served += 1,
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::ZERO, Ev::Arrival);
//! let mut world = Queue {
//!     rng: DetRng::for_component(1, "arrivals"),
//!     busy_until: SimTime::ZERO,
//!     served: 0,
//! };
//! engine.run(&mut world);
//! assert!(world.served >= 100);
//! ```

mod engine;
mod rng;
mod time;

pub use engine::{Engine, RunStats, Scheduler, World};
pub use rng::{fnv1a_bytes, fnv1a_words, DetRng, Zipf, FNV_OFFSET};
pub use time::{SimDuration, SimTime};
