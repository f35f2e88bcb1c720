//! The simulation driver: the [`Model`] trait, the [`Scheduler`] handle that
//! models use to schedule follow-up events, and the [`Simulation`] run loop.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A simulation model: owns all mutable world state and reacts to events.
///
/// Events are plain data (typically an enum). The model never touches the
/// event queue directly — it receives a [`Scheduler`] handle through which it
/// can schedule future events, which keeps the control flow explicit and the
/// model unit-testable without an engine.
pub trait Model {
    /// The event type dispatched to this model.
    type Event;

    /// Handles a single event occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, scheduler: &mut Scheduler<Self::Event>);

    /// Observation hook: called right before [`Model::handle`] for every
    /// dispatched event, with the number of events still queued behind it.
    /// The default does nothing and optimizes away; instrumented models (the
    /// tracing seam in `vanet-trace`) override it to record dispatches. Must
    /// not affect model behaviour.
    #[inline(always)]
    fn on_dispatch(&mut self, now: SimTime, queue_depth: usize) {
        let _ = (now, queue_depth);
    }

    /// Called once when the run loop stops (either the queue drained, the
    /// horizon was reached or the event budget was exhausted). The default
    /// does nothing.
    fn on_finish(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// Handle through which a [`Model`] schedules future events.
///
/// The scheduler also exposes the current simulation time so that models do
/// not need to thread it manually.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    pending: Vec<(SimTime, E)>,
}

impl<E> Scheduler<E> {
    /// Builds a scheduler around an existing (cleared) buffer, so the run
    /// loop can reuse one allocation across every dispatched event.
    fn with_buffer(now: SimTime, pending: Vec<(SimTime, E)>) -> Self {
        debug_assert!(pending.is_empty(), "scratch buffer must start empty");
        Scheduler { now, pending }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event fires immediately
    /// after the current one (still in deterministic FIFO order).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.pending.push((at, event));
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.pending.push((self.now + delay, event));
    }

    /// Schedules `event` to fire immediately after the current event.
    pub fn schedule_now(&mut self, event: E) {
        self.pending.push((self.now, event));
    }
}

/// Why a [`Simulation::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueDrained,
    /// The configured time horizon was reached before the queue drained.
    HorizonReached,
    /// The configured maximum number of events was processed.
    EventBudgetExhausted,
}

/// A discrete-event simulation: an event queue plus a [`Model`].
///
/// # Examples
///
/// ```
/// use sim_core::{Model, Scheduler, SimDuration, SimTime, Simulation};
///
/// #[derive(Default)]
/// struct Counter { fired: usize }
///
/// impl Model for Counter {
///     type Event = u32;
///     fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
///         self.fired += 1;
///         if ev > 0 {
///             sched.schedule_in(SimDuration::from_millis(1), ev - 1);
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter::default());
/// sim.schedule_at(SimTime::ZERO, 3);
/// assert_eq!(sim.run(), sim_core::RunOutcome::QueueDrained);
/// assert_eq!(sim.model().fired, 4);
/// ```
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    horizon: Option<SimTime>,
    max_events: Option<u64>,
    processed: u64,
    /// Scratch buffer lent to each event's [`Scheduler`], reused across the
    /// whole run so dispatching an event never allocates.
    scratch: Vec<(SimTime, M::Event)>,
}

/// Default pre-sizing of the event queue: the simulations reproduced here
/// keep hundreds of frames, timers and position ticks in flight, so starting
/// at a real capacity avoids the first several heap regrowths of every round.
const DEFAULT_QUEUE_CAPACITY: usize = 1_024;

impl<M: Model> Simulation<M> {
    /// Creates a simulation around `model` starting at time zero.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::with_capacity(DEFAULT_QUEUE_CAPACITY),
            now: SimTime::ZERO,
            horizon: None,
            max_events: None,
            processed: 0,
            scratch: Vec::new(),
        }
    }

    /// Stops the run once simulated time would exceed `horizon`.
    /// Events scheduled exactly at the horizon are still processed.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Stops the run after `max_events` events, as a runaway guard.
    pub fn with_event_budget(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Schedules an event at an absolute time before or during the run.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        self.queue.push(at, event);
    }

    /// Schedules an event `delay` after the current simulation time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Current simulation time (the timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed_events(&self) -> u64 {
        self.processed
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the simulation and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Processes a single event if one is pending and within the horizon.
    /// Returns `None` if the step could not be taken, with the reason.
    pub fn step(&mut self) -> Result<SimTime, RunOutcome> {
        if let Some(budget) = self.max_events {
            if self.processed >= budget {
                return Err(RunOutcome::EventBudgetExhausted);
            }
        }
        let Some(next_time) = self.queue.peek_time() else {
            return Err(RunOutcome::QueueDrained);
        };
        if let Some(h) = self.horizon {
            if next_time > h {
                return Err(RunOutcome::HorizonReached);
            }
        }
        let ev = self.queue.pop().expect("peeked, must exist");
        debug_assert!(ev.time >= self.now, "event queue must never move time backwards");
        self.now = ev.time;
        self.model.on_dispatch(self.now, self.queue.len());
        let mut scheduler = Scheduler::with_buffer(self.now, std::mem::take(&mut self.scratch));
        self.model.handle(self.now, ev.event, &mut scheduler);
        let mut pending = scheduler.pending;
        for (t, e) in pending.drain(..) {
            self.queue.push(t, e);
        }
        self.scratch = pending;
        self.processed += 1;
        Ok(self.now)
    }

    /// Runs until the queue drains, the horizon is reached or the event budget
    /// is exhausted, and reports which of those happened.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            match self.step() {
                Ok(_) => {}
                Err(outcome) => {
                    if outcome == RunOutcome::HorizonReached {
                        // Advance the clock to the horizon so callers observe
                        // a well-defined end time.
                        if let Some(h) = self.horizon {
                            self.now = self.now.max(h);
                        }
                    }
                    self.model.on_finish(self.now);
                    return outcome;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records the order in which events arrive.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        dispatches: Vec<(SimTime, usize)>,
        finish_time: Option<SimTime>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now, event));
            // Event 100 fans out two follow-ups to exercise the scheduler.
            if event == 100 {
                sched.schedule_now(101);
                sched.schedule_in(SimDuration::from_secs(1), 102);
            }
        }
        fn on_dispatch(&mut self, now: SimTime, queue_depth: usize) {
            self.dispatches.push((now, queue_depth));
        }
        fn on_finish(&mut self, now: SimTime) {
            self.finish_time = Some(now);
        }
    }

    #[test]
    fn events_delivered_in_time_order() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(3), 3);
        assert_eq!(sim.run(), RunOutcome::QueueDrained);
        let order: Vec<u32> = sim.model().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(sim.processed_events(), 3);
    }

    #[test]
    fn follow_up_events_fire_after_parent() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_secs(5), 100);
        sim.run();
        let order: Vec<u32> = sim.model().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(order, vec![100, 101, 102]);
        assert_eq!(sim.model().seen[1].0, SimTime::from_secs(5));
        assert_eq!(sim.model().seen[2].0, SimTime::from_secs(6));
        assert_eq!(sim.processed_events(), 3, "100 plus its two follow-ups");
        // A second run adds only its own events to the count.
        sim.schedule_at(SimTime::from_secs(10), 1);
        sim.run();
        assert_eq!(sim.processed_events(), 4);
    }

    #[test]
    fn horizon_stops_processing() {
        let mut sim = Simulation::new(Recorder::default()).with_horizon(SimTime::from_secs(2));
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.schedule_at(SimTime::from_secs(3), 3);
        assert_eq!(sim.run(), RunOutcome::HorizonReached);
        let order: Vec<u32> = sim.model().seen.iter().map(|(_, e)| *e).collect();
        assert_eq!(order, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.model().finish_time, Some(SimTime::from_secs(2)));
        // The event past the horizon stays queued: a later horizon runs it.
        let mut sim = sim.with_horizon(SimTime::from_secs(3));
        assert_eq!(sim.run(), RunOutcome::QueueDrained);
        assert_eq!(sim.model().seen.last(), Some(&(SimTime::from_secs(3), 3)));
    }

    #[test]
    fn event_budget_guards_against_runaway() {
        /// A model that reschedules itself forever.
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
                sched.schedule_in(SimDuration::from_nanos(1), ());
            }
        }
        let mut sim = Simulation::new(Forever).with_event_budget(1_000);
        sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(sim.run(), RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.processed_events(), 1_000);
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        struct PastScheduler {
            fired: Vec<SimTime>,
        }
        impl Model for PastScheduler {
            type Event = bool;
            fn handle(&mut self, now: SimTime, first: bool, sched: &mut Scheduler<bool>) {
                self.fired.push(now);
                if first {
                    // Deliberately schedule "one second ago".
                    sched.schedule_at(SimTime::ZERO, false);
                }
            }
        }
        let mut sim = Simulation::new(PastScheduler { fired: vec![] });
        sim.schedule_at(SimTime::from_secs(10), true);
        sim.run();
        assert_eq!(sim.model().fired, vec![SimTime::from_secs(10), SimTime::from_secs(10)]);
    }

    #[test]
    fn on_dispatch_sees_every_event_with_the_remaining_depth() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(sim.run(), RunOutcome::QueueDrained);
        assert_eq!(
            sim.model().dispatches,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 0)]
        );
    }

    #[test]
    fn step_reports_drained_queue() {
        let mut sim = Simulation::new(Recorder::default());
        assert_eq!(sim.step(), Err(RunOutcome::QueueDrained));
    }

    #[test]
    fn into_model_returns_state() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::ZERO, 7);
        sim.run();
        let model = sim.into_model();
        assert_eq!(model.seen.len(), 1);
    }
}
