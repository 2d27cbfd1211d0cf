package perfbench

/** Minimal JSON writer for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    (sb += '"').toString
  }

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a finite number")
    d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
