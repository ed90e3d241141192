#include "core/token_mapper.hpp"

#include "support/assert.hpp"

namespace gather::core {

void TokenMapper::queue_ports(MapGraph::MapNode v, sim::Port except) {
  for (sim::Port p = 0; p < map_->degree(v); ++p) {
    if (p != except) frontier_.emplace_back(v, p);
  }
}

void TokenMapper::skip_tour(std::size_t steps) {
  if (steps == 0) return;
  GATHER_PROTOCOL(state_ == State::Tour &&
                  steps <= tour_.ports.size() - tour_idx_);
  tour_idx_ += steps;
  tour_pos_ = tour_.arrivals[tour_idx_ - 1];
}

std::optional<TokenMapper::Decision> TokenMapper::on_round(
    std::uint32_t degree, sim::Port entry_port, bool token_here) {
  if (state_ == State::Init) {
    map_.emplace(degree);
    map_pos_ = map_->root();
    queue_ports(map_->root(), sim::kNoPort);
    state_ = State::Select;
  }

  // Loop over zero-round transitions until a move (or completion) emerges.
  for (;;) {
    switch (state_) {
      case State::Init:
        GATHER_INVARIANT(!"unreachable");
        break;

      case State::Select: {
        // Drop frontier entries resolved from the far side.
        while (!frontier_.empty() &&
               map_->is_resolved(frontier_.front().first,
                                 frontier_.front().second)) {
          frontier_.pop_front();
        }
        if (frontier_.empty()) {
          map_->path_ports(map_pos_, map_->root(), plan_);
          plan_idx_ = 0;
          state_ = State::WalkHome;
          continue;
        }
        task_u_ = frontier_.front().first;
        task_p_ = frontier_.front().second;
        frontier_.pop_front();
        map_->path_ports(map_pos_, task_u_, plan_);
        plan_idx_ = 0;
        state_ = State::WalkToTask;
        continue;
      }

      case State::WalkToTask: {
        if (plan_idx_ < plan_.size()) {
          const sim::Port port = plan_[plan_idx_++];
          map_pos_ = map_->endpoint(map_pos_, port).first;
          return Decision{port, true};
        }
        GATHER_PROTOCOL(map_pos_ == task_u_);
        state_ = State::Cross;
        continue;
      }

      case State::Cross: {
        // Cross the unknown port together with the token.
        state_ = State::AfterCross;
        return Decision{task_p_, true};
      }

      case State::AfterCross: {
        // We are at the unknown node x; the view describes x.
        GATHER_PROTOCOL(entry_port != sim::kNoPort);
        x_degree_ = degree;
        x_entry_ = entry_port;
        // Step back to u alone, leaving the token at x.
        state_ = State::TourSetup;
        return Decision{entry_port, false};
      }

      case State::TourSetup: {
        map_->closed_tour(task_u_, tour_);
        tour_idx_ = 0;
        tour_pos_ = task_u_;
        state_ = State::Tour;
        continue;
      }

      case State::Tour: {
        if (token_here) {
          // Token sighted: x is the already-known node tour_pos_.
          GATHER_PROTOCOL(map_->degree(tour_pos_) == x_degree_);
          map_->resolve(task_u_, task_p_, tour_pos_, x_entry_);
          map_pos_ = tour_pos_;
          state_ = State::Select;
          continue;
        }
        if (tour_idx_ < tour_.ports.size()) {
          tour_pos_ = tour_.arrivals[tour_idx_];
          return Decision{tour_.ports[tour_idx_++], false};
        }
        // Tour exhausted without sighting the token: x is a new node.
        GATHER_PROTOCOL(tour_pos_ == task_u_);
        const MapGraph::MapNode fresh = map_->add_node(x_degree_);
        map_->resolve(task_u_, task_p_, fresh, x_entry_);
        queue_ports(fresh, x_entry_);
        // Rejoin the token by crossing the now-resolved port.
        map_pos_ = fresh;
        state_ = State::Select;
        return Decision{task_p_, false};
      }

      case State::WalkHome: {
        if (plan_idx_ < plan_.size()) {
          const sim::Port port = plan_[plan_idx_++];
          map_pos_ = map_->endpoint(map_pos_, port).first;
          return Decision{port, true};
        }
        GATHER_PROTOCOL(map_pos_ == map_->root());
        GATHER_PROTOCOL(map_->complete());
        state_ = State::Done;
        continue;
      }

      case State::Done:
        return std::nullopt;
    }
  }
}

}  // namespace gather::core
