#include "geneva/trigger.h"

namespace caya {

bool Trigger::matches(const Packet& pkt) const {
  return field_->render(pkt) == value_;
}

std::string Trigger::to_string() const {
  return "[" + std::string(caya::to_string(field_->proto)) + ":" +
         std::string(field_->name) + ":" + value_ + "]";
}

}  // namespace caya
