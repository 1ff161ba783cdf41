#include "geneva/trigger.h"

namespace caya {

bool Trigger::matches(const Packet& pkt) const {
  if (field_->form == FieldForm::kBytes ||
      field_->form == FieldForm::kDnsName) {
    return field_->render(pkt) == value_.text;
  }
  const std::optional<std::uint64_t> number = field_->get(pkt);
  // An option trigger without a value fires when the option is absent.
  if (field_->form == FieldForm::kOption && value_.text.empty()) {
    return !number;
  }
  return number == value_.number;
}

std::string Trigger::to_string() const {
  return "[" + std::string(caya::to_string(field_->proto)) + ":" +
         std::string(field_->name) + ":" + value_.text + "]";
}

}  // namespace caya
