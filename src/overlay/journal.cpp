#include "overlay/journal.hpp"

#include <cstdio>

namespace vdm::overlay {

void MembershipJournal::start(const sim::Reactor& clock) {
  clock_ = started_ ? nullptr : &clock;
  started_ = true;
}

void MembershipJournal::on_attach(net::HostId child, net::HostId parent) {
  record(JournalRow::Kind::kAttach, child, parent);
}

void MembershipJournal::on_detach(net::HostId child, net::HostId parent) {
  record(JournalRow::Kind::kDetach, child, parent);
}

void MembershipJournal::record(JournalRow::Kind kind, net::HostId child,
                               net::HostId parent) {
  if (clock_ != nullptr) rows_.push_back({clock_->now(), kind, child, parent});
}

void MembershipJournal::write_csv(std::ostream& out) const {
  out << "t,event,child,parent\n";
  char t[32];
  for (const JournalRow& r : rows_) {
    std::snprintf(t, sizeof(t), "%a", r.t);
    out << t << ',' << (r.kind == JournalRow::Kind::kAttach ? "attach" : "detach")
        << ',' << r.child << ',' << r.parent << '\n';
  }
}

}  // namespace vdm::overlay
